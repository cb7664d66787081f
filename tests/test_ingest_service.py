"""Tests for the live ingestion service layer.

Covers the metrics registry and its Prometheus rendering, the RoundClock
sealing state machine (quorum / explicit, late drop, state round-trip), the
clock-attached session semantics (late, out-of-order, duplicate batches),
and the HTTP service end to end: bit-identity against a batch session,
authentication, fold-before-202, stop, checkpoint/kill/restore, periodic
checkpoints and the transport's input limits.

HTTP tests run real asyncio servers on ephemeral localhost ports via
``asyncio.run`` wrappers — no event-loop plugins needed.
"""

import asyncio
import json
import os
import re

import numpy as np
import pytest

from repro.service.auth import PayloadAuthenticator
from repro.exceptions import ParameterError
from repro.service import CollectorSession, MetricsRegistry, RoundClock
from repro.service.clock import SealEvent
from repro.service.http import HttpClient
from repro.service.ingest import (
    CheckpointError,
    IngestServer,
    decode_reports,
    encode_reports,
    wire_reports_supported,
)
from repro.service.loadgen import generate_round_reports, run_loadgen
from repro.specs import IngestSpec, ProtocolSpec

PROTO = ProtocolSpec(name="L-OSUE", k=8, eps_inf=2.0, eps_1=1.0)


def _spec(**overrides) -> IngestSpec:
    defaults = dict(protocol=PROTO, n_rounds=3)
    defaults.update(overrides)
    return IngestSpec(**defaults)


def _reports(n_rounds=3, n_users=30, seed=11, proto=PROTO):
    return generate_round_reports(proto, n_rounds, n_users, seed)


def _batch_session(rounds, proto=PROTO):
    session = CollectorSession(proto, n_rounds=len(rounds))
    for t, batch in enumerate(rounds):
        session.submit_reports(t, batch)
    return session


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_gauge_histogram_render(self):
        registry = MetricsRegistry()
        c = registry.counter("demo_total", "a counter")
        g = registry.gauge("demo_depth", "a gauge")
        h = registry.histogram("demo_seconds", "a histogram", buckets=(0.1, 1.0))
        c.inc()
        c.inc(2)
        g.set(5)
        g.dec(1.5)
        h.observe(0.05)
        h.observe(0.5)
        h.observe(3.0)
        text = registry.render()
        assert "# TYPE demo_total counter" in text
        assert "demo_total 3" in text
        assert "demo_depth 3.5" in text
        assert 'demo_seconds_bucket{le="0.1"} 1' in text
        assert 'demo_seconds_bucket{le="1"} 2' in text
        assert 'demo_seconds_bucket{le="+Inf"} 3' in text
        assert "demo_seconds_count 3" in text
        assert "demo_seconds_sum 3.55" in text

    def test_labeled_series_share_the_family(self):
        registry = MetricsRegistry()
        c = registry.counter("events_total", "by reason")
        c.labels(reason="auth").inc()
        c.labels(reason="auth").inc()
        c.labels(reason="late").inc(3)
        assert c.value(reason="auth") == 2
        assert c.value(reason="late") == 3
        text = registry.render()
        assert 'events_total{reason="auth"} 2' in text
        assert 'events_total{reason="late"} 3' in text

    def test_register_or_return_and_kind_conflict(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total")
        assert registry.counter("x_total") is a
        with pytest.raises(ParameterError, match="already registered"):
            registry.gauge("x_total")

    def test_counter_refuses_to_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ParameterError, match="cannot decrease"):
            registry.counter("y_total").inc(-1)

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ParameterError, match="invalid metric name"):
            registry.counter("bad name")
        with pytest.raises(ParameterError, match="label name"):
            registry.counter("ok_total").labels(**{"bad-label": "x"}).inc()

    def test_untouched_instruments_render_zero_sample(self):
        registry = MetricsRegistry()
        registry.counter("quiet_total", "never incremented")
        assert "quiet_total 0" in registry.render()


# ---------------------------------------------------------------------- #
# RoundClock
# ---------------------------------------------------------------------- #
class TestRoundClock:
    def test_quorum_seals_window(self):
        clock = RoundClock(3, quorum=5)
        for _ in range(4):
            assert clock.route(0) == 0
        assert clock.current_round == 0
        assert clock.route(0) == 0  # the 5th report seals after routing
        assert clock.current_round == 1
        assert clock.seals[0].reason == "quorum"
        assert clock.seals[0].n_reports == 5

    def test_explicit_advance_and_finished_guard(self):
        clock = RoundClock(2)
        clock.advance()
        clock.advance("drain")
        assert clock.finished
        assert [e.reason for e in clock.seals] == ["explicit", "drain"]
        with pytest.raises(ParameterError, match="already sealed"):
            clock.advance()

    def test_late_drop_policy(self):
        clock = RoundClock(3)
        clock.advance()
        assert clock.route(0, n_reports=7) is None
        assert clock.late_dropped == 7
        assert clock.window_reports == 0
        clock.advance()
        clock.advance()  # past the horizon every round is late
        assert clock.route(2, n_reports=2) is None
        assert clock.late_dropped == 9

    def test_early_reports_pass_through(self):
        clock = RoundClock(3)
        assert clock.route(2, n_reports=4) == 2
        assert clock.early_reports == 4
        assert clock.window_reports == 0  # the open window is unaffected

    def test_on_seal_callback_fires(self):
        events = []
        clock = RoundClock(2, quorum=1, on_seal=events.append)
        clock.route(0)
        assert len(events) == 1 and isinstance(events[0], SealEvent)

    def test_state_round_trip(self):
        clock = RoundClock(4, quorum=10)
        for _ in range(10):
            clock.route(0)
        clock.route(1, n_reports=3)
        clock.advance()
        clock.route(0, n_reports=2)  # late, dropped
        clock.route(2, n_reports=4)
        clock.route(3, n_reports=5)  # early
        state = json.loads(json.dumps(clock.state_dict()))  # wire round trip
        restored = RoundClock.from_state(state)
        assert restored.current_round == clock.current_round == 2
        assert restored.window_reports == 4
        assert restored.late_dropped == 2 and restored.early_reports == 5
        assert restored.quorum == 10
        assert restored.seals == clock.seals
        assert [e.reason for e in restored.seals] == ["quorum", "explicit"]

    def test_state_of_the_retired_clock_settings(self):
        """Format-1 states of earlier versions carry ``window_seconds`` and
        ``late_policy``: their defaults restore, anything else is refused
        naming the field."""
        state = dict(RoundClock(3, quorum=5).state_dict())
        legacy = dict(
            state, window_seconds=None, late_policy="drop", late_absorbed=0
        )
        assert RoundClock.from_state(legacy).state_dict() == state
        for field, value in (("window_seconds", 5.0), ("late_policy", "absorb")):
            with pytest.raises(ParameterError, match=field):
                RoundClock.from_state(dict(legacy, **{field: value}))

    def test_invalid_state_rejected(self):
        with pytest.raises(ParameterError, match="state format"):
            RoundClock.from_state({"format": 99})
        with pytest.raises(ParameterError, match="invalid round-clock state"):
            RoundClock.from_state({"format": 1, "n_rounds": 2})

    def test_bad_parameters_rejected(self):
        with pytest.raises(ParameterError, match="quorum"):
            RoundClock(2, quorum=0)
        with pytest.raises(ParameterError, match="round index"):
            RoundClock(2).route(2)


# ---------------------------------------------------------------------- #
# Session + clock semantics
# ---------------------------------------------------------------------- #
class TestSessionWithClock:
    def test_clock_horizon_must_match(self):
        session = CollectorSession(PROTO, n_rounds=3)
        with pytest.raises(ParameterError, match="horizon"):
            session.attach_clock(RoundClock(2))
        with pytest.raises(ParameterError, match="RoundClock"):
            session.attach_clock("not a clock")

    def test_late_drop_returns_none_and_freezes_estimate(self):
        rounds = _reports()
        session = CollectorSession(PROTO, n_rounds=3, clock=RoundClock(3))
        session.submit_reports(0, rounds[0])
        frozen = session.estimate(0).frequencies.copy()
        session.clock.advance()
        assert session.submit_reports(0, rounds[1]) is None
        np.testing.assert_array_equal(session.estimate(0).frequencies, frozen)
        assert session.clock.late_dropped == len(rounds[1])

    def test_out_of_order_and_duplicate_batches(self):
        rounds = _reports()
        clock = RoundClock(3)
        session = CollectorSession(PROTO, n_rounds=3, clock=clock)
        # Future rounds are accepted out of order while round 0 is open.
        session.submit_reports(2, rounds[2])
        session.submit_reports(1, rounds[1])
        assert clock.early_reports == len(rounds[1]) + len(rounds[2])
        session.submit_reports(0, rounds[0])
        # A duplicate delivery of an on-time batch is folded again: the
        # session is an absorber, dedup is the sender's job (and the
        # report count doubles with it, keeping the estimate unbiased).
        session.submit_reports(0, rounds[0])
        assert session.estimate(0).n_reports == 2 * len(rounds[0])
        reference = _batch_session(rounds)
        for t in (1, 2):
            np.testing.assert_array_equal(
                session.estimate(t).frequencies,
                reference.estimate(t).frequencies,
            )

    def test_quorum_clock_matches_batch_reference_bit_identically(self):
        rounds = _reports()
        n_users = len(rounds[0])
        clock = RoundClock(3, quorum=n_users)
        session = CollectorSession(PROTO, n_rounds=3, clock=clock)
        for t, batch in enumerate(rounds):
            mid = n_users // 3
            session.submit_reports(t, batch[:mid])
            session.submit_reports(t, batch[mid:])
        assert clock.finished
        reference = _batch_session(rounds)
        np.testing.assert_array_equal(
            session.estimates(), reference.estimates()
        )


# ---------------------------------------------------------------------- #
# Wire codec
# ---------------------------------------------------------------------- #
class TestWireCodec:
    @pytest.mark.parametrize(
        "spec",
        [
            ProtocolSpec(name="L-GRR", k=6, eps_inf=2.0, eps_1=1.0),
            ProtocolSpec(name="L-OSUE", k=6, eps_inf=2.0, eps_1=1.0),
            ProtocolSpec(
                name="dBitFlipPM", k=6, eps_inf=2.0, params={"d": 2, "b": 4}
            ),
        ],
    )
    def test_round_trip_preserves_support_counts(self, spec):
        from repro.registry import build_protocol

        protocol = build_protocol(spec)
        assert wire_reports_supported(protocol)
        batch = generate_round_reports(protocol, 1, 20, seed=3)[0]
        wire = json.loads(json.dumps(encode_reports(protocol, batch)))
        decoded = decode_reports(protocol, wire)
        np.testing.assert_array_equal(
            protocol.support_counts(decoded), protocol.support_counts(batch)
        )

    def test_loloha_reports_are_not_wire_serializable(self):
        from repro.registry import build_protocol

        protocol = build_protocol(
            ProtocolSpec(name="LOLOHA", k=6, eps_inf=2.0, eps_1=1.0)
        )
        assert not wire_reports_supported(protocol)
        client = protocol.create_client(rng=0)
        with pytest.raises(ParameterError, match="counts"):
            encode_reports(protocol, [client.report(0, rng=1)])

    def test_malformed_wire_reports_rejected(self):
        from repro.registry import build_protocol

        protocol = build_protocol(
            ProtocolSpec(name="dBitFlipPM", k=6, eps_inf=2.0, params={"d": 2, "b": 4})
        )
        with pytest.raises(ParameterError, match="malformed wire report"):
            decode_reports(protocol, [{"buckets": [0, 1]}])
        with pytest.raises(ParameterError, match="non-empty"):
            decode_reports(protocol, [])


# ---------------------------------------------------------------------- #
# HTTP service end to end
# ---------------------------------------------------------------------- #
async def _query(client, method, path, **kwargs):
    response = await client.request(method, path, **kwargs)
    return response


class TestIngestHttp:
    def test_loadgen_estimates_bit_identical_to_batch_session(self):
        spec = _spec(quorum=30)
        rounds = _reports(n_users=30)
        reference = _batch_session(rounds)

        async def scenario():
            server = IngestServer(spec)
            host, port = await server.start()
            result = await run_loadgen(
                PROTO, host, port, n_rounds=3, n_users=30, seed=11,
                batch_size=7, rate=200.0,
            )
            client = HttpClient(host, port)
            estimates = [
                (await client.request("GET", f"/v1/estimate/{t}")).parsed_json()
                for t in range(3)
            ]
            metrics = (await client.request("GET", "/metrics")).body.decode()
            await client.close()
            await server.stop()
            return result, estimates, metrics

        result, estimates, metrics = asyncio.run(scenario())
        assert result.accepted_reports == 90
        for t, payload in enumerate(estimates):
            assert payload["sealed"] is True
            assert payload["n_reports"] == 30
            np.testing.assert_array_equal(
                np.asarray(payload["frequencies"]),
                reference.estimate(t).frequencies,
            )
        assert "repro_ingest_reports_accepted_total 90" in metrics
        assert 'repro_ingest_rounds_sealed_total{reason="quorum"} 3' in metrics

    def test_counts_mode_is_bit_identical_too(self):
        spec = _spec(quorum=30)
        rounds = _reports(n_users=30)
        reference = _batch_session(rounds)

        async def scenario():
            server = IngestServer(spec)
            host, port = await server.start()
            result = await run_loadgen(
                PROTO, host, port, n_rounds=3, n_users=30, seed=11,
                batch_size=10, mode="counts",
            )
            client = HttpClient(host, port)
            payload = (await client.request("GET", "/v1/estimate/1")).parsed_json()
            await client.close()
            await server.stop()
            return result, payload

        result, payload = asyncio.run(scenario())
        assert result.accepted_reports == 90
        np.testing.assert_array_equal(
            np.asarray(payload["frequencies"]), reference.estimate(1).frequencies
        )

    def test_auth_rejects_unsigned_and_wrong_key(self, monkeypatch):
        monkeypatch.setenv("INGEST_TEST_KEY", "the-right-key")
        spec = _spec(auth_key_env="INGEST_TEST_KEY")

        async def scenario():
            server = IngestServer(spec)
            host, port = await server.start()
            wrong = await run_loadgen(
                PROTO, host, port, n_rounds=1, n_users=10, seed=1,
                batch_size=10,
                authenticator=PayloadAuthenticator(b"not-the-right-key"),
            )
            right = await run_loadgen(
                PROTO, host, port, n_rounds=1, n_users=10, seed=1,
                batch_size=10, auth_key_env="INGEST_TEST_KEY",
            )
            client = HttpClient(host, port)
            unsigned = await client.request(
                "POST", "/v1/reports",
                body=json.dumps({"round": 0, "reports": [1]}).encode(),
            )
            metrics = (await client.request("GET", "/metrics")).body.decode()
            await client.close()
            await server.stop()
            return wrong, right, unsigned, metrics

        wrong, right, unsigned, metrics = asyncio.run(scenario())
        assert wrong.statuses == {401: 1} and wrong.accepted_reports == 0
        assert right.accepted_reports == 10
        assert unsigned.status == 401
        assert 'repro_ingest_rejected_total{reason="auth"} 2' in metrics

    def test_each_202_is_already_in_the_next_rounds_read(self):
        """8 keep-alive clients, one round each: after every 202, the very
        next GET /v1/rounds on that connection counts the batch."""
        from repro.registry import build_protocol

        protocol = build_protocol(PROTO)
        n_clients, batch_size = 8, 5
        spec = _spec(n_rounds=n_clients)
        rounds = _reports(n_rounds=n_clients, n_users=20)

        async def one_client(host, port, t):
            client = HttpClient(host, port)
            accepted, seen = 0, []
            for start in range(0, len(rounds[t]), batch_size):
                batch = rounds[t][start : start + batch_size]
                body = json.dumps(
                    {"round": t, "reports": encode_reports(protocol, batch)}
                ).encode()
                response = await client.request("POST", "/v1/reports", body=body)
                assert response.status == 202
                assert response.parsed_json() == {
                    "status": "folded", "round": t, "n_reports": len(batch),
                }
                accepted += len(batch)
                status = (await client.request("GET", "/v1/rounds")).parsed_json()
                seen.append((status["reports_per_round"][t], accepted))
            await client.close()
            return seen

        async def scenario():
            server = IngestServer(spec)
            host, port = await server.start()
            seen = await asyncio.gather(
                *(one_client(host, port, t) for t in range(n_clients))
            )
            await server.stop()
            return seen

        for per_client in asyncio.run(scenario()):
            assert len(per_client) == 4
            assert all(counted == accepted for counted, accepted in per_client)

    def test_posts_after_stop_began_answer_503_and_202s_are_checkpointed(
        self, tmp_path
    ):
        from repro.registry import build_protocol

        checkpoint = tmp_path / "live.npz"
        spec = _spec()
        batch = _reports(n_users=12)[0]
        body = json.dumps(
            {"round": 0, "reports": encode_reports(build_protocol(PROTO), batch)}
        ).encode()

        async def scenario():
            server = IngestServer(spec, checkpoint_path=checkpoint)
            client = HttpClient(*await server.start())
            statuses = [
                (await client.request("POST", "/v1/reports", body=body)).status
                for _ in range(3)
            ]
            stopping = asyncio.ensure_future(server.stop())
            await asyncio.sleep(0)  # stop() has begun
            for _ in range(3):
                response = await client.request("POST", "/v1/reports", body=body)
                statuses.append(response.status)
            advance = await client.request("POST", "/v1/rounds/advance")
            await client.close()
            await asyncio.wait_for(stopping, timeout=30)
            return statuses, advance.status

        statuses, advance_status = asyncio.run(scenario())
        assert statuses == [202] * 3 + [503] * 3
        assert advance_status == 503
        restored = CollectorSession.restore(checkpoint)
        assert restored.total_reports == statuses.count(202) * len(batch)
        assert restored.clock.current_round == 0

    def test_spec_naming_queue_capacity_is_refused(self, tmp_path, capsys):
        from repro.cli import main
        from repro.specs import load_ingest_spec

        path = tmp_path / "ingest.json"
        payload = dict(_spec().to_dict(), queue_capacity=64)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParameterError, match="queue_capacity"):
            load_ingest_spec(path)
        assert main(["ingest", "--spec", str(path), "--run-seconds", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "queue_capacity" in err

    @pytest.mark.parametrize(
        "field, value", [("window_seconds", 5.0), ("late_policy", "drop")]
    )
    def test_spec_naming_a_retired_clock_setting_is_refused(
        self, tmp_path, capsys, field, value
    ):
        """Rounds seal on quorum or advance only: a spec naming a timeout
        window or a late policy (even the old default) is an unknown field."""
        from repro.cli import main
        from repro.specs import load_ingest_spec

        path = tmp_path / "ingest.json"
        payload = dict(_spec(quorum=30).to_dict(), **{field: value})
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParameterError, match="unknown ingest spec fields"):
            load_ingest_spec(path)
        assert main(["ingest", "--spec", str(path), "--run-seconds", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err

    def test_malformed_submissions_answer_400(self):
        spec = _spec()

        async def scenario():
            server = IngestServer(spec)
            host, port = await server.start()
            client = HttpClient(host, port)
            cases = [
                b"not json",
                json.dumps([1, 2]).encode(),
                json.dumps({"round": 99, "reports": [1]}).encode(),
                json.dumps({"round": 0}).encode(),
                json.dumps({"round": 0, "reports": [1], "counts": [0] * 8}).encode(),
                json.dumps({"round": 0, "counts": [0] * 5, "n_reports": 2}).encode(),
                json.dumps({"round": 0, "counts": [0] * 8, "n_reports": 0}).encode(),
                json.dumps({"round": 0, "reports": [[1, 0]]}).encode(),
            ]
            statuses = [
                (await client.request("POST", "/v1/reports", body=body)).status
                for body in cases
            ]
            await client.close()
            await server.stop()
            return statuses

        assert asyncio.run(scenario()) == [400] * 8

    def test_status_endpoints_and_errors(self):
        spec = _spec(n_rounds=2)

        async def scenario():
            server = IngestServer(spec)
            host, port = await server.start()
            client = HttpClient(host, port)
            health = (await client.request("GET", "/healthz")).parsed_json()
            rounds = (await client.request("GET", "/v1/rounds")).parsed_json()
            missing = await client.request("GET", "/v1/estimate/0")
            bad_round = await client.request("GET", "/v1/estimate/xyz")
            not_found = await client.request("GET", "/nope")
            wrong_method = await client.request("POST", "/healthz")
            advance = (
                await client.request("POST", "/v1/rounds/advance")
            ).parsed_json()
            await client.request("POST", "/v1/rounds/advance")
            exhausted = await client.request("POST", "/v1/rounds/advance")
            await client.close()
            await server.stop()
            return health, rounds, missing, bad_round, not_found, wrong_method, advance, exhausted

        (health, rounds, missing, bad_round, not_found,
         wrong_method, advance, exhausted) = asyncio.run(scenario())
        assert health["status"] == "ok" and health["current_round"] == 0
        assert rounds["n_rounds"] == 2 and rounds["reports_per_round"] == [0, 0]
        assert missing.status == 404
        assert bad_round.status == 400
        assert not_found.status == 404
        assert wrong_method.status == 405
        assert advance["sealed_round"] == 0 and advance["reason"] == "explicit"
        assert exhausted.status == 400

    def test_checkpoint_kill_restore_resumes_bit_identically(self, tmp_path):
        checkpoint = tmp_path / "live.npz"
        spec = _spec(quorum=30)
        rounds = _reports(n_users=30)
        reference = _batch_session(rounds)

        async def first_generation():
            server = IngestServer(spec, checkpoint_path=checkpoint)
            host, port = await server.start()
            # Rounds 0 and 1 arrive, then the process "dies" (stop stands
            # in for the SIGTERM path, which calls exactly stop()).
            await run_loadgen(
                PROTO, host, port, n_rounds=3, n_users=30, seed=11,
                batch_size=15, rounds=[0, 1],
            )
            await server.stop()
            return server.clock.current_round

        async def second_generation():
            server = IngestServer(spec, checkpoint_path=checkpoint)
            host, port = await server.start()
            await run_loadgen(
                PROTO, host, port, n_rounds=3, n_users=30, seed=11,
                batch_size=15, rounds=[2],
            )
            client = HttpClient(host, port)
            estimates = [
                (await client.request("GET", f"/v1/estimate/{t}")).parsed_json()
                for t in range(3)
            ]
            await client.close()
            await server.stop()
            return server.clock.current_round, estimates

        sealed_at_kill = asyncio.run(first_generation())
        assert sealed_at_kill == 2  # two quorum seals before the "crash"
        # Session and round clock live in one checkpoint file, no sidecar.
        assert os.listdir(tmp_path) == ["live.npz"]
        resumed_round, estimates = asyncio.run(second_generation())
        assert resumed_round == 3
        for t, payload in enumerate(estimates):
            np.testing.assert_array_equal(
                np.asarray(payload["frequencies"]),
                reference.estimate(t).frequencies,
            )

    def test_restore_refuses_mismatched_spec(self, tmp_path):
        checkpoint = tmp_path / "state.npz"
        session = CollectorSession(PROTO, n_rounds=3)
        session.checkpoint(checkpoint)
        other = _spec(
            protocol=ProtocolSpec(name="L-GRR", k=8, eps_inf=2.0, eps_1=1.0)
        )
        with pytest.raises(ParameterError, match="does not match"):
            IngestServer(other, checkpoint_path=checkpoint)
        with pytest.raises(ParameterError, match="horizon"):
            IngestServer(_spec(n_rounds=5), checkpoint_path=checkpoint)



# ---------------------------------------------------------------------- #
# One checkpoint file: session + round clock
# ---------------------------------------------------------------------- #
def _clock_state(clock: RoundClock):
    return (
        clock.current_round,
        clock.window_reports,
        clock.seals,
        clock.late_dropped,
        clock.early_reports,
    )


class TestIngestCheckpoint:
    """The ingest server restores session *and* clock from one ``.npz``."""

    def _live_checkpoint(self, tmp_path):
        """Reports in every round, one quorum seal, late and early traffic."""
        checkpoint = tmp_path / "live.npz"
        server = IngestServer(_spec(quorum=30), checkpoint_path=checkpoint)
        rounds = _reports(n_users=30)
        session = server.session
        session.submit_reports(0, rounds[0])  # quorum seals round 0
        session.submit_reports(2, rounds[2][:10])  # early
        session.submit_reports(0, rounds[0][:5])  # late, dropped
        session.submit_reports(1, rounds[1][:12])
        assert server.clock.current_round == 1
        assert server.checkpoint(force=True)
        return checkpoint, server

    def test_checkpoint_writes_one_file_and_restores_clock(self, tmp_path):
        checkpoint, server = self._live_checkpoint(tmp_path)
        assert os.listdir(tmp_path) == ["live.npz"]
        restored = IngestServer(_spec(quorum=30), checkpoint_path=checkpoint)
        assert _clock_state(restored.clock) == _clock_state(server.clock)
        assert restored.clock.late_dropped == 5
        assert restored.clock.early_reports == 10
        assert restored.session.clock is restored.clock
        np.testing.assert_array_equal(
            restored.session.reports_per_round, server.session.reports_per_round
        )
        np.testing.assert_array_equal(
            restored.session.estimates(), server.session.estimates()
        )
        # The plain session restore still answers the same state.
        session = CollectorSession.restore(checkpoint)
        np.testing.assert_array_equal(
            session.estimates(), server.session.estimates()
        )
        assert _clock_state(session.clock) == _clock_state(server.clock)

    def test_resent_sealed_round_is_not_counted_twice(self, tmp_path):
        """Seal round 0, checkpoint, restart, resend round 0: the resent
        batch is dropped as late instead of re-entering round 0."""
        checkpoint = tmp_path / "live.npz"
        spec = _spec(quorum=60, n_rounds=4)
        rounds = _reports(n_rounds=4, n_users=60)
        server = IngestServer(spec, checkpoint_path=checkpoint)
        server.session.submit_reports(0, rounds[0])
        assert server.clock.current_round == 1
        server.checkpoint(force=True)

        restarted = IngestServer(spec, checkpoint_path=checkpoint)
        assert restarted.clock.current_round == 1
        restarted.session.submit_reports(0, rounds[0])
        assert restarted.session.reports_per_round.tolist() == [60, 0, 0, 0]
        assert restarted.clock.late_dropped == 60

    def test_clockless_session_checkpoint_is_refused(self, tmp_path):
        checkpoint = tmp_path / "session.npz"
        session = CollectorSession(PROTO, n_rounds=3)
        session.submit_reports(0, _reports()[0])
        session.checkpoint(checkpoint)
        with pytest.raises(ParameterError, match="no round-clock state") as info:
            IngestServer(_spec(), checkpoint_path=checkpoint)
        assert str(checkpoint) in str(info.value)

    def test_changed_clock_settings_are_refused(self, tmp_path, capsys):
        """A checkpoint made with quorum 30 is not resumed under quorum 60:
        the field and both values are named."""
        from repro.cli import main

        checkpoint, _ = self._live_checkpoint(tmp_path)
        changed = _spec(quorum=60)
        with pytest.raises(ParameterError) as info:
            IngestServer(changed, checkpoint_path=checkpoint)
        message = str(info.value)
        assert str(checkpoint) in message
        assert "quorum 30 (checkpoint) != 60 (spec)" in message

        spec_path = changed.save(tmp_path / "ingest.json")
        code = main(
            [
                "ingest",
                "--spec", str(spec_path),
                "--checkpoint", str(checkpoint),
                "--run-seconds", "0.1",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error: " in err and "quorum 30 (checkpoint) != 60 (spec)" in err
        assert "Traceback" not in err

    @staticmethod
    def _rewrite_clock_state(path, **fields):
        """Rewrite the checkpoint's clock entry with ``fields`` added."""
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        state = dict(json.loads(str(arrays["clock"][()])), **fields)
        arrays["clock"] = np.array(json.dumps(state))
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)

    def test_checkpoint_of_the_earlier_clock_format_restores(self, tmp_path):
        """Earlier versions wrote the same format-1 clock state plus
        ``window_seconds``, ``late_policy`` and ``late_absorbed``; with their
        defaults it restores the same session, clock and estimates."""
        checkpoint, server = self._live_checkpoint(tmp_path)
        self._rewrite_clock_state(
            checkpoint, window_seconds=None, late_policy="drop", late_absorbed=0
        )
        restored = IngestServer(_spec(quorum=30), checkpoint_path=checkpoint)
        assert _clock_state(restored.clock) == _clock_state(server.clock)
        np.testing.assert_array_equal(
            restored.session.estimates(), server.session.estimates()
        )
        np.testing.assert_array_equal(
            restored.session.reports_per_round, server.session.reports_per_round
        )

    @pytest.mark.parametrize(
        "field, value", [("window_seconds", 5.0), ("late_policy", "absorb")]
    )
    def test_checkpoint_with_a_retired_clock_setting_is_refused(
        self, tmp_path, capsys, field, value
    ):
        from repro.cli import main

        checkpoint, _ = self._live_checkpoint(tmp_path)
        legacy = dict(window_seconds=None, late_policy="drop", late_absorbed=0)
        self._rewrite_clock_state(checkpoint, **dict(legacy, **{field: value}))
        with pytest.raises(ParameterError, match=field) as info:
            IngestServer(_spec(quorum=30), checkpoint_path=checkpoint)
        assert str(checkpoint) in str(info.value)
        with pytest.raises(ParameterError, match=field):
            CollectorSession.restore(checkpoint)

        spec_path = _spec(quorum=30).save(tmp_path / "ingest.json")
        argv = [
            "ingest", "--spec", str(spec_path), "--checkpoint", str(checkpoint),
            "--run-seconds", "0.1",
        ]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error: " in err and field in err
        assert "Traceback" not in err

    def _assert_refused_or_identical(self, path, server):
        try:
            restored = IngestServer(_spec(quorum=30), checkpoint_path=path)
        except ParameterError as error:
            assert str(path) in str(error)
            return False
        np.testing.assert_array_equal(
            restored.session._counts, server.session._counts
        )
        np.testing.assert_array_equal(
            restored.session.reports_per_round, server.session.reports_per_round
        )
        assert _clock_state(restored.clock) == _clock_state(server.clock)
        return True

    def test_every_truncation_is_refused(self, tmp_path):
        checkpoint, server = self._live_checkpoint(tmp_path)
        data = checkpoint.read_bytes()
        damaged = tmp_path / "damaged.npz"
        for size in range(len(data)):
            damaged.write_bytes(data[:size])
            assert not self._assert_refused_or_identical(damaged, server), size

    def test_every_bit_flip_is_refused_or_restores_exactly(self, tmp_path):
        checkpoint, server = self._live_checkpoint(tmp_path)
        data = checkpoint.read_bytes()
        damaged = tmp_path / "damaged.npz"
        outcomes = []
        for offset in range(len(data)):
            flipped = bytearray(data)
            flipped[offset] ^= 1 << (offset % 8)
            damaged.write_bytes(bytes(flipped))
            outcomes.append(self._assert_refused_or_identical(damaged, server))
        assert not all(outcomes) and any(outcomes)


# ---------------------------------------------------------------------- #
# Wire contract: validation and the array fold
# ---------------------------------------------------------------------- #
WIRE_SPECS = {
    "ue": ProtocolSpec(name="L-OSUE", k=4, eps_inf=2.0, eps_1=1.0),
    "grr": ProtocolSpec(name="L-GRR", k=4, eps_inf=2.0, eps_1=1.0),
    "dbitflip": ProtocolSpec(
        name="dBitFlipPM", k=8, eps_inf=2.0, params={"d": 2, "b": 4}
    ),
}

#: (server, submission body minus its round) pairs that break the wire
#: contract.  Each must raise ParameterError and answer 400, never 500.
MALFORMED_SUBMISSIONS = [
    # dBitFlipPM, b=4, d=2: buckets distinct in [0, b), bits 0/1.
    ("dbitflip", {"reports": [{"buckets": [9, 1], "bits": [1, 0]}]}),
    ("dbitflip", {"reports": [{"buckets": [-1, 1], "bits": [1, 0]}]}),
    ("dbitflip", {"reports": [{"buckets": [0, 0], "bits": [1, 0]}]}),
    ("dbitflip", {"reports": [{"buckets": [0], "bits": [1]}]}),
    ("dbitflip", {"reports": [{"buckets": [0, 1], "bits": [1]}]}),
    ("dbitflip", {"reports": [{"buckets": [0, 1], "bits": [2, 5]}]}),
    ("dbitflip", {"reports": [{"buckets": [0.0, 1], "bits": [1, 0]}]}),
    ("dbitflip", {"reports": [{"buckets": [0, 1], "bits": [True, 0]}]}),
    ("dbitflip", {"reports": [{"buckets": [0, 1], "bits": ["1", 0]}]}),
    ("dbitflip", {"reports": [{"buckets": [0, 1]}]}),
    ("dbitflip", {"reports": [[0, 1]]}),
    # L-UE, k=4: every bit is the JSON integer 0 or 1.
    ("ue", {"reports": [[2, 0, 0, 0]]}),
    ("ue", {"reports": [[256, 0, 0, 0]]}),
    ("ue", {"reports": [[-1, 0, 0, 0]]}),
    ("ue", {"reports": [[1e30, 0, 0, 0]]}),
    ("ue", {"reports": [[0.7, 0, 0, 0]]}),
    ("ue", {"reports": [["1", 0, 0, 0]]}),
    ("ue", {"reports": [[True, 0, 0, 0]]}),
    ("ue", {"reports": [[1, 0, 0]]}),
    ("ue", {"reports": [1]}),
    # L-GRR, k=4: every report is a JSON integer in [0, k).
    ("grr", {"reports": [1.9]}),
    ("grr", {"reports": ["3"]}),
    ("grr", {"reports": [4]}),
    ("grr", {"reports": [-1]}),
    ("grr", {"reports": [True]}),
    ("grr", {"reports": [10**30]}),
    ("grr", {"reports": [[1]]}),
    # counts mode: numbers with integer values in [0, n_reports].
    ("grr", {"counts": [-5, 3, 3, 1], "n_reports": 2}),
    ("grr", {"counts": [0.5, 0.5, 0, 0], "n_reports": 1}),
    ("grr", {"counts": [4, 0, 0, 0], "n_reports": 1}),
    ("grr", {"counts": ["1", 0, 0, 0], "n_reports": 1}),
    ("grr", {"counts": [True, 0, 0, 0], "n_reports": 1}),
    ("grr", {"counts": [float("nan"), 0, 0, 0], "n_reports": 1}),
    ("grr", {"counts": [10**400, 0, 0, 0], "n_reports": 1}),
]


class TestWireContract:
    def test_malformed_wire_rejected_with_400(self):
        from repro.registry import build_protocol

        for family, submission in MALFORMED_SUBMISSIONS:
            protocol = build_protocol(WIRE_SPECS[family])
            payload = json.loads(json.dumps(submission))
            if "reports" in payload:
                with pytest.raises(ParameterError):
                    decode_reports(protocol, payload["reports"])
            with pytest.raises(ParameterError):
                IngestServer(_spec(protocol=WIRE_SPECS[family]))._decode_submission(
                    payload
                )

        async def scenario():
            servers, clients = {}, {}
            for family, spec in WIRE_SPECS.items():
                servers[family] = IngestServer(
                    _spec(protocol=spec)
                )
                clients[family] = HttpClient(*await servers[family].start())
            statuses = []
            for family, submission in MALFORMED_SUBMISSIONS:
                body = json.dumps({"round": 0, **submission}).encode()
                response = await clients[family].request(
                    "POST", "/v1/reports", body=body
                )
                statuses.append(response.status)
            rounds = {
                family: (await client.request("GET", "/v1/rounds")).parsed_json()
                for family, client in clients.items()
            }
            for family, server in servers.items():
                await clients[family].close()
                await server.stop()
            return statuses, rounds

        statuses, rounds = asyncio.run(scenario())
        assert statuses == [400] * len(MALFORMED_SUBMISSIONS)
        for payload in rounds.values():
            assert payload["reports_per_round"] == [0, 0, 0]

    @pytest.mark.parametrize(
        "spec",
        [
            ProtocolSpec(name="L-OSUE", k=1335, eps_inf=2.0, alpha=0.5),
            ProtocolSpec(name="L-GRR", k=1335, eps_inf=2.0, alpha=0.5),
            ProtocolSpec(
                name="dBitFlipPM", label="bBitFlipPM", k=1335, eps_inf=2.0,
                params={"d": "b"},
            ),
        ],
        ids=["L-OSUE", "L-GRR", "bBitFlipPM"],
    )
    def test_array_fold_bit_identical_at_paper_k(self, spec):
        from repro.registry import build_protocol

        protocol = build_protocol(spec)
        rounds = generate_round_reports(protocol, 3, 24, seed=5)
        server = IngestServer(_spec(protocol=spec))
        bodies = []
        for t, batch in enumerate(rounds):
            for part in (batch[:10], batch[10:]):
                wire = json.loads(json.dumps(encode_reports(protocol, part)))
                counts, n_reports = server._decode_submission({"reports": wire})
                assert n_reports == len(part)
                assert counts.dtype == np.float64
                np.testing.assert_array_equal(
                    counts, protocol.support_counts(part)
                )
                np.testing.assert_array_equal(
                    protocol.support_counts(decode_reports(protocol, wire)),
                    counts,
                )
                bodies.append(json.dumps({"round": t, "reports": wire}).encode())
        reference = _batch_session(rounds, proto=spec)

        async def scenario():
            live = IngestServer(_spec(protocol=spec))
            client = HttpClient(*await live.start())
            statuses = [
                (await client.request("POST", "/v1/reports", body=body)).status
                for body in bodies
            ]
            estimates = [
                (await client.request("GET", f"/v1/estimate/{t}")).parsed_json()
                for t in range(len(rounds))
            ]
            await client.close()
            await live.stop()
            return statuses, estimates

        statuses, estimates = asyncio.run(scenario())
        assert statuses == [202] * len(bodies)
        for t, payload in enumerate(estimates):
            expected = reference.estimate(t)
            assert payload["n_reports"] == expected.n_reports
            assert payload["frequencies"] == expected.frequencies.tolist()


# ---------------------------------------------------------------------- #
# HTTP transport limits and periodic checkpoints
# ---------------------------------------------------------------------- #
def _raw_exchange(host, port, data):
    """Send raw bytes on a fresh connection; return what comes back."""
    import socket

    chunks = []
    with socket.create_connection((host, port), timeout=10) as sock:
        try:
            sock.sendall(data)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server may answer and close before reading it all
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _raw_post(body, *, target="/v1/reports", headers=(), length=None):
    lines = [
        f"POST {target} HTTP/1.1",
        "Host: test",
        f"Content-Length: {len(body) if length is None else length}",
        *headers,
    ]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class TestHttpLimits:
    """Refused requests answer before touching the session, then close."""

    BODY = json.dumps({"round": 0, "counts": [0] * 8, "n_reports": 1}).encode()

    CASES = {
        # Declared only: no body bytes are sent, so a 413 proves the server
        # answered before reading the body.
        "body-over-8MiB": (_raw_post(b"", length=8 * 1024 * 1024 + 1), 413),
        "negative-length": (_raw_post(BODY, length=-1), 400),
        "non-integer-length": (_raw_post(BODY, length="x"), 400),
        "65-headers": (
            _raw_post(BODY, headers=[f"X-Pad-{i}: {i}" for i in range(65)]), 400
        ),
        "20KiB-header-line": (
            _raw_post(BODY, headers=["X-Pad: " + "a" * 20_000]), 400
        ),
        "70KB-header-line": (
            _raw_post(BODY, headers=["X-Pad: " + "a" * 70_000]), 400
        ),
        "70KB-request-target": (
            _raw_post(BODY, target="/v1/reports?" + "a" * 70_000), 400
        ),
        "malformed-request-line": (b"POST /v1/reports\r\n\r\n" + BODY, 400),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refusal_closes_and_folds_nothing(self, case):
        request, status = self.CASES[case]

        async def scenario():
            server = IngestServer(_spec())
            host, port = await server.start()
            reply = await asyncio.to_thread(_raw_exchange, host, port, request)
            total = server.session.total_reports
            # The server is still up and takes a well-formed batch.
            accepted = await asyncio.to_thread(
                _raw_exchange, host, port,
                _raw_post(self.BODY, headers=["Connection: close"]),
            )
            await server.stop()
            return reply, accepted, total

        reply, accepted, total = asyncio.run(scenario())
        head = reply.split(b"\r\n\r\n", 1)[0].decode("latin-1").split("\r\n")
        assert head[0].startswith(f"HTTP/1.1 {status} "), reply[:200]
        assert "Connection: close" in head[1:]
        assert total == 0
        assert accepted.startswith(b"HTTP/1.1 202 ")


class TestHttpClientErrors:
    @pytest.mark.parametrize(
        "reply",
        [
            b"HTTP/1.1 abc OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
        ],
        ids=["status-code", "content-length", "70KB-header-line"],
    )
    def test_malformed_response_raises_http_error_502(self, reply):
        from repro.service.http import HttpError

        async def canned(reader, writer):
            await reader.readuntil(b"\r\n\r\n")
            writer.write(reply)
            await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(canned, "127.0.0.1", 0)
            client = HttpClient(*server.sockets[0].getsockname()[:2])
            try:
                await client.request("GET", "/healthz")
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        with pytest.raises(HttpError) as info:
            asyncio.run(scenario())
        assert info.value.status == 502


class TestPeriodicCheckpoint:
    def test_checkpoint_task_writes_changes_only(self, tmp_path):
        """A fold reaches the ``.npz`` while the server still serves; an
        unchanged session is not rewritten; each write is counted."""
        checkpoint = tmp_path / "live.npz"
        spec = _spec(checkpoint_interval_seconds=0.05)
        body = json.dumps({"round": 0, "counts": [1] * 8, "n_reports": 3}).encode()

        def written():
            return server.metrics.counter("repro_ingest_checkpoints_total").value()

        async def until(condition):
            for _ in range(500):
                if condition():
                    return
                await asyncio.sleep(0.01)
            raise AssertionError("the checkpoint task did not write in 5 s")

        async def scenario():
            host, port = await server.start()
            client = HttpClient(host, port)
            assert (await client.request("POST", "/v1/reports", body=body)).status == 202
            await until(lambda: written() == 1)
            assert CollectorSession.restore(checkpoint).total_reports == 3
            stat = checkpoint.stat()
            await asyncio.sleep(0.3)  # six intervals with nothing new
            unchanged = (written(), checkpoint.stat().st_mtime_ns, checkpoint.stat().st_ino)
            assert (await client.request("POST", "/v1/reports", body=body)).status == 202
            await until(lambda: written() == 2)
            assert CollectorSession.restore(checkpoint).total_reports == 6
            metrics = (await client.request("GET", "/metrics")).body.decode()
            await client.close()
            await server.stop()
            return stat, unchanged, metrics

        server = IngestServer(spec, checkpoint_path=checkpoint)
        stat, unchanged, metrics = asyncio.run(scenario())
        assert unchanged == (1, stat.st_mtime_ns, stat.st_ino)
        assert "repro_ingest_checkpoints_total 2" in metrics
        assert written() == 3  # stop() forces the final write

    def test_failing_checkpoint_is_counted_retried_and_typed_at_stop(self, tmp_path):
        """A checkpoint whose parent is a regular file cannot be written:
        the server keeps serving, each tick retries and counts the failure,
        and stop() still tries the final write, then raises a typed error."""
        blocker = tmp_path / "not-a-directory"
        blocker.write_bytes(b"")
        checkpoint = blocker / "live.npz"
        spec = _spec(checkpoint_interval_seconds=0.05)
        body = json.dumps({"round": 0, "counts": [1] * 8, "n_reports": 3}).encode()

        def failures():
            return server.metrics.counter("repro_ingest_checkpoint_failures_total").value()

        async def scenario():
            host, port = await server.start()
            client = HttpClient(host, port)
            assert (await client.request("POST", "/v1/reports", body=body)).status == 202
            for _ in range(500):
                if failures() >= 3:
                    break
                await asyncio.sleep(0.01)
            running = not server._checkpoint_task.done()
            status = (await client.request("POST", "/v1/reports", body=body)).status
            await client.close()
            failed_ticks = failures()
            with pytest.raises(CheckpointError, match=re.escape(str(checkpoint))):
                await server.stop()
            return running, status, failed_ticks

        server = IngestServer(spec, checkpoint_path=checkpoint)
        running, status, failed_ticks = asyncio.run(scenario())
        assert running and status == 202
        assert failed_ticks >= 3  # three intervals, each one retried
        assert failures() > failed_ticks  # stop() tried once more
        assert server.metrics.counter("repro_ingest_checkpoints_total").value() == 0
        assert server.session.total_reports == 6

    def test_failed_checkpoint_is_written_once_the_path_is_usable(self, tmp_path):
        """A write that failed stays due: once the blocker is gone the next
        tick writes the folded state, and /metrics shows the failures."""
        blocker = tmp_path / "state"
        blocker.write_bytes(b"")
        checkpoint = blocker / "live.npz"
        spec = _spec(checkpoint_interval_seconds=0.05)
        body = json.dumps({"round": 0, "counts": [1] * 8, "n_reports": 3}).encode()

        def value(name):
            return server.metrics.counter(name).value()

        async def until(condition):
            for _ in range(500):
                if condition():
                    return
                await asyncio.sleep(0.01)
            raise AssertionError("the checkpoint task did not get there in 5 s")

        async def scenario():
            host, port = await server.start()
            client = HttpClient(host, port)
            assert (await client.request("POST", "/v1/reports", body=body)).status == 202
            await until(lambda: value("repro_ingest_checkpoint_failures_total") >= 1)
            blocker.unlink()
            blocker.mkdir()
            await until(lambda: value("repro_ingest_checkpoints_total") == 1)
            restored = CollectorSession.restore(checkpoint).total_reports
            metrics = (await client.request("GET", "/metrics")).body.decode()
            await client.close()
            await server.stop()
            return restored, metrics

        server = IngestServer(spec, checkpoint_path=checkpoint)
        restored, metrics = asyncio.run(scenario())
        assert restored == 3
        failed = re.search(r"^repro_ingest_checkpoint_failures_total (\d+)", metrics, re.M)
        assert failed is not None and int(failed.group(1)) >= 1
        assert value("repro_ingest_checkpoints_total") == 2  # stop() forces the final write

    def test_no_task_without_a_checkpoint_path(self):
        async def scenario():
            server = IngestServer(_spec(checkpoint_interval_seconds=0.01))
            await server.start()
            task = server._checkpoint_task
            await server.stop()
            return task

        assert asyncio.run(scenario()) is None


# ---------------------------------------------------------------------- #
# Loadgen determinism
# ---------------------------------------------------------------------- #
class TestLoadgen:
    def test_same_seed_same_reports(self):
        a = generate_round_reports(PROTO, 2, 10, seed=42)
        b = generate_round_reports(PROTO, 2, 10, seed=42)
        for batch_a, batch_b in zip(a, b):
            np.testing.assert_array_equal(
                np.asarray(batch_a), np.asarray(batch_b)
            )

    def test_different_seed_different_reports(self):
        a = np.asarray(generate_round_reports(PROTO, 2, 10, seed=42))
        b = np.asarray(generate_round_reports(PROTO, 2, 10, seed=43))
        assert not np.array_equal(a, b)

    def test_loloha_requires_counts_mode(self):
        loloha = ProtocolSpec(name="LOLOHA", k=6, eps_inf=2.0, eps_1=1.0)

        async def scenario():
            await run_loadgen(
                loloha, "127.0.0.1", 1, n_rounds=1, n_users=2, seed=0,
                mode="reports",
            )

        with pytest.raises(ParameterError, match="counts"):
            asyncio.run(scenario())

    def test_invalid_arguments_rejected(self):
        async def bad_mode():
            await run_loadgen(
                PROTO, "127.0.0.1", 1, n_rounds=1, n_users=1, seed=0,
                mode="stream",
            )

        with pytest.raises(ParameterError, match="mode"):
            asyncio.run(bad_mode())

        async def bad_rate():
            await run_loadgen(
                PROTO, "127.0.0.1", 1, n_rounds=1, n_users=1, seed=0, rate=0.0
            )

        with pytest.raises(ParameterError, match="rate"):
            asyncio.run(bad_rate())
