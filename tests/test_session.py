"""Tests for the CollectorSession streaming server façade."""

import json

import numpy as np
import pytest

from repro.exceptions import AggregationError, ParameterError
from repro.longitudinal import LOSUE
from repro.service import CollectorSession, RoundClock
from repro.simulation import simulate_with_clients
from repro.specs import ProtocolSpec


def _spec(k: int) -> ProtocolSpec:
    return ProtocolSpec(name="L-OSUE", k=k, eps_inf=2.0, eps_1=1.0)


def _collect_reports(protocol, dataset, rng):
    """One client per user; returns reports[t][i] like a real collection."""
    generator = np.random.default_rng(rng)
    clients = [protocol.create_client(generator) for _ in range(dataset.n_users)]
    rounds = []
    for values_t in dataset.iter_rounds():
        rounds.append(
            [c.report(int(v), generator) for c, v in zip(clients, values_t)]
        )
    return rounds


class TestIncrementalCollection:
    def test_out_of_order_batches_match_batch_reference(self, tiny_dataset):
        spec = _spec(tiny_dataset.k)
        session = CollectorSession(spec, n_rounds=tiny_dataset.n_rounds)
        reference = simulate_with_clients(
            session.protocol, tiny_dataset, rng=np.random.default_rng(3)
        )
        rounds = _collect_reports(session.protocol, tiny_dataset, rng=3)

        # Feed the same reports out of round order, split into uneven batches.
        order = list(reversed(range(tiny_dataset.n_rounds)))
        for t in order:
            reports = rounds[t]
            mid = len(reports) // 3
            session.submit_reports(t, reports[:mid])
            session.submit_reports(t, reports[mid:])

        assert session.is_complete
        assert session.total_reports == tiny_dataset.n_users * tiny_dataset.n_rounds
        # Same reports -> same support counts -> identical debiased estimates.
        np.testing.assert_allclose(session.estimates(), reference.estimates)

    def test_running_estimate_uses_partial_sample_size(self, tiny_dataset):
        session = CollectorSession(_spec(tiny_dataset.k), n_rounds=2)
        rounds = _collect_reports(session.protocol, tiny_dataset, rng=0)
        half = tiny_dataset.n_users // 2
        estimate = session.submit_reports(0, rounds[0][:half])
        assert estimate.n_reports == half
        # A partial round still produces a (roughly) normalized histogram
        # because the estimator is scaled by the received-report count.
        assert estimate.frequencies.sum() == pytest.approx(1.0, abs=0.35)
        full = session.submit_reports(0, rounds[0][half:])
        assert full.n_reports == tiny_dataset.n_users

    def test_estimates_marks_missing_rounds_nan(self, tiny_dataset):
        session = CollectorSession(_spec(tiny_dataset.k), n_rounds=3)
        rounds = _collect_reports(session.protocol, tiny_dataset, rng=1)
        session.submit_reports(1, rounds[1])
        matrix = session.estimates()
        assert np.isnan(matrix[0]).all() and np.isnan(matrix[2]).all()
        assert np.isfinite(matrix[1]).all()
        assert list(session.rounds_observed) == [1]

    def test_submit_counts_fast_path_matches_reports(self, tiny_dataset):
        spec = _spec(tiny_dataset.k)
        by_reports = CollectorSession(spec, n_rounds=1)
        by_counts = CollectorSession(spec, n_rounds=1)
        rounds = _collect_reports(by_reports.protocol, tiny_dataset, rng=2)
        by_reports.submit_reports(0, rounds[0])
        counts = by_reports.protocol.support_counts(rounds[0])
        by_counts.submit_counts(0, counts, n_reports=len(rounds[0]))
        np.testing.assert_allclose(by_counts.estimates(), by_reports.estimates())


class TestSessionValidation:
    """Fail-fast guards: malformed input raises ParameterError naming the
    offending value, never a downstream numpy error."""

    def test_round_index_out_of_range(self):
        session = CollectorSession(_spec(8), n_rounds=2)
        client = session.protocol.create_client(rng=0)
        with pytest.raises(ParameterError, match=r"\[0, 2\), got 2"):
            session.submit_reports(2, [client.report(0, rng=1)])

    def test_negative_round_index_rejected(self):
        session = CollectorSession(_spec(8), n_rounds=2)
        client = session.protocol.create_client(rng=0)
        with pytest.raises(ParameterError, match="got -1"):
            session.submit_reports(-1, [client.report(0, rng=1)])

    def test_non_integer_round_index_rejected(self):
        session = CollectorSession(_spec(8), n_rounds=2)
        with pytest.raises(ParameterError, match="integer"):
            session.submit_counts(1.5, np.zeros(8), n_reports=3)
        with pytest.raises(ParameterError, match="integer"):
            session.submit_counts(True, np.zeros(8), n_reports=3)

    def test_empty_batch_rejected(self):
        session = CollectorSession(_spec(8), n_rounds=2)
        with pytest.raises(ParameterError, match="empty"):
            session.submit_reports(0, [])

    def test_counts_shape_checked(self):
        session = CollectorSession(_spec(8), n_rounds=2)
        with pytest.raises(ParameterError, match=r"\(8,\).*\(5,\)"):
            session.submit_counts(0, np.zeros(5), n_reports=3)

    def test_shape_mismatched_reports_raise_parameter_error(self):
        # UE reports of the wrong width used to surface as an EncodingError
        # (or worse, a numpy broadcast failure) from deep inside the fold.
        session = CollectorSession(_spec(8), n_rounds=2)
        with pytest.raises(ParameterError, match="L-OSUE"):
            session.submit_reports(0, [np.zeros(5, dtype=np.int64)])

    def test_garbage_reports_raise_parameter_error(self):
        session = CollectorSession(_spec(8), n_rounds=2)
        with pytest.raises(ParameterError, match="does not fit protocol"):
            session.submit_reports(0, [object(), object()])

    def test_estimate_of_unobserved_round_rejected(self):
        session = CollectorSession(_spec(8), n_rounds=2)
        with pytest.raises(AggregationError, match="any reports"):
            session.estimate(0)

    def test_protocol_object_sessions_work_but_cannot_checkpoint(self, tmp_path):
        session = CollectorSession(LOSUE(8, 2.0, 1.0), n_rounds=2)
        client = session.protocol.create_client(rng=0)
        session.submit_reports(0, [client.report(1, rng=1)])
        with pytest.raises(ParameterError, match="ProtocolSpec"):
            session.checkpoint(tmp_path / "ck.npz")


class TestCheckpointRestore:
    def test_round_trip_preserves_state_and_estimates(self, tiny_dataset, tmp_path):
        spec = _spec(tiny_dataset.k)
        session = CollectorSession(spec, n_rounds=tiny_dataset.n_rounds)
        rounds = _collect_reports(session.protocol, tiny_dataset, rng=4)
        session.submit_reports(0, rounds[0])
        session.submit_reports(2, rounds[2][:50])

        # checkpoint() writes the one .npz format whatever the suffix.
        path = session.checkpoint(tmp_path / "session.ckpt")
        with np.load(path, allow_pickle=False) as archive:
            assert "counts" in archive.files
        restored = CollectorSession.restore(path)
        assert restored.spec == spec
        assert restored.n_rounds == session.n_rounds
        np.testing.assert_array_equal(
            restored.reports_per_round, session.reports_per_round
        )
        np.testing.assert_allclose(restored.estimates(), session.estimates())

        # The restored session keeps collecting where the original stopped.
        restored.submit_reports(2, rounds[2][50:])
        session.submit_reports(2, rounds[2][50:])
        np.testing.assert_allclose(restored.estimates(), session.estimates())

    def test_restore_missing_file_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="no session checkpoint"):
            CollectorSession.restore(tmp_path / "absent.json")

    def test_restore_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ParameterError, match="invalid session checkpoint"):
            CollectorSession.restore(path)

    def test_restore_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "v99.npz"
        np.savez(path, format=np.int64(99))
        with pytest.raises(ParameterError, match="unsupported checkpoint format"):
            CollectorSession.restore(path)

    def test_json_checkpoint_is_refused(self, tmp_path):
        """The JSON session format is gone: such a file is a typed error."""
        path = tmp_path / "session.json"
        payload = {
            "format": 1,
            "spec": _spec(8).to_dict(),
            "n_rounds": 2,
            "counts": [[0.0] * 8] * 2,
            "n_reports": [0, 0],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ParameterError, match="invalid session checkpoint") as info:
            CollectorSession.restore(path)
        assert str(path) in str(info.value)


class TestNpzCheckpoint:
    def test_npz_round_trip_preserves_state_and_estimates(
        self, tiny_dataset, tmp_path
    ):
        spec = _spec(tiny_dataset.k)
        session = CollectorSession(spec, n_rounds=tiny_dataset.n_rounds)
        rounds = _collect_reports(session.protocol, tiny_dataset, rng=4)
        session.submit_reports(0, rounds[0])
        session.submit_reports(2, rounds[2][:50])

        path = session.checkpoint(tmp_path / "session.npz")
        restored = CollectorSession.restore(path)
        assert restored.clock is None  # none was attached, none is restored
        assert restored.spec == spec
        assert restored.n_rounds == session.n_rounds
        np.testing.assert_array_equal(
            restored.reports_per_round, session.reports_per_round
        )
        # Binary round trip: bit-identical, not merely close.
        np.testing.assert_array_equal(
            restored.support_counts(0), session.support_counts(0)
        )
        restored.submit_reports(2, rounds[2][50:])
        session.submit_reports(2, rounds[2][50:])
        np.testing.assert_array_equal(restored.estimates(), session.estimates())

    def test_restore_ignores_the_suffix(self, tiny_dataset, tmp_path):
        """A checkpoint restores whatever it is named."""
        spec = _spec(tiny_dataset.k)
        session = CollectorSession(spec, n_rounds=tiny_dataset.n_rounds)
        rounds = _collect_reports(session.protocol, tiny_dataset, rng=4)
        session.submit_reports(1, rounds[1])
        npz_path = session.checkpoint(tmp_path / "chk.npz")
        disguised = tmp_path / "chk.json"
        disguised.write_bytes(npz_path.read_bytes())
        restored = CollectorSession.restore(disguised)
        np.testing.assert_array_equal(
            restored.reports_per_round, session.reports_per_round
        )

    @pytest.mark.parametrize(
        "content",
        [b'{"format": 1, "n_rounds": 2}', bytes(range(256)) * 4],
        ids=["json", "random-bytes"],
    )
    def test_non_zip_file_is_named_not_an_npz_archive(self, tmp_path, content):
        path = tmp_path / "session.npz"
        path.write_bytes(content)
        with pytest.raises(ParameterError, match="not an .npz archive") as info:
            CollectorSession.restore(path)
        assert str(path) in str(info.value)
        assert "pickle" not in str(info.value)

    def test_corrupt_npz_rejected(self, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"PK\x03\x04 garbage that is not a real zip")
        with pytest.raises(ParameterError, match="invalid session checkpoint"):
            CollectorSession.restore(bad)

    def test_no_temp_files_left_behind(self, tiny_dataset, tmp_path):
        spec = _spec(tiny_dataset.k)
        session = CollectorSession(spec, n_rounds=tiny_dataset.n_rounds)
        rounds = _collect_reports(session.protocol, tiny_dataset, rng=4)
        session.submit_reports(0, rounds[0])
        session.checkpoint(tmp_path / "a.npz")
        session.submit_reports(1, rounds[1])
        session.checkpoint(tmp_path / "a.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["a.npz"]


class TestClockCheckpoint:
    """An attached RoundClock is saved in, and restored from, the same .npz."""

    @pytest.mark.parametrize(
        "spec",
        [
            ProtocolSpec(name="L-GRR", k=8, eps_inf=2.0, eps_1=1.0),
            ProtocolSpec(name="L-OSUE", k=8, eps_inf=2.0, eps_1=1.0),
            ProtocolSpec(name="OLOLOHA", k=8, eps_inf=2.0, eps_1=1.0),
            ProtocolSpec(name="dBitFlipPM", k=8, eps_inf=2.0, params={"d": 2}),
        ],
        ids=lambda spec: spec.name,
    )
    def test_clock_round_trip_and_resume(self, spec, tmp_path):
        session = CollectorSession(
            spec, n_rounds=4, clock=RoundClock(4, quorum=10)
        )
        m = session.protocol.estimation_domain_size
        counts = np.arange(m, dtype=np.float64) % 3
        session.submit_counts(0, counts, n_reports=10)  # quorum seals round 0
        session.submit_counts(3, counts, n_reports=4)  # early
        session.submit_counts(0, counts, n_reports=2)  # late, dropped
        session.submit_counts(1, counts, n_reports=3)
        path = session.checkpoint(tmp_path / "live.npz")

        restored = CollectorSession.restore(path)
        clock = restored.clock
        assert clock is not None and clock.quorum == 10
        assert clock.current_round == 1 and clock.window_reports == 3
        assert (clock.late_dropped, clock.early_reports) == (2, 4)
        assert clock.seals == session.clock.seals
        np.testing.assert_array_equal(
            restored.reports_per_round, session.reports_per_round
        )
        # Both continue identically: a late batch is dropped, and the open
        # window seals on its quorum.
        for target in (session, restored):
            assert target.submit_counts(0, counts, n_reports=8) is None
            assert target.submit_counts(1, counts, n_reports=7).round_index == 1
        np.testing.assert_array_equal(restored.estimates(), session.estimates())
        assert restored.clock.current_round == session.clock.current_round == 2

