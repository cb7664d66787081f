"""Conformance suite for the results store.

The contract of :class:`repro.store.ResultsStore` that the sweeps and
``repro-ldp query`` rely on is whatever :class:`TestBackendConformance` and
:class:`TestQuery` assert.  :class:`TestCrashSafety` covers a mid-write
SIGKILL and concurrent writers.
"""

import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.cli import main
from repro.exceptions import ExperimentError
from repro.store import FINGERPRINT_KEY, ResultsStore, fingerprint_from_comment
from repro.store import results_store


@pytest.fixture
def backend(tmp_path):
    return ResultsStore(tmp_path / "csv")


ROWS = [
    {"protocol": "L-OSUE", "eps_inf": 2.0, "alpha": 0.5, "mse": 0.25},
    {"protocol": "1BitFlipPM", "eps_inf": 0.5, "alpha": 0.5, "mse": None},
]
#: What the store returns for ROWS: CSV stringification, None -> "".
ROWS_LOADED = [
    {"protocol": "L-OSUE", "eps_inf": "2.0", "alpha": "0.5", "mse": "0.25"},
    {"protocol": "1BitFlipPM", "eps_inf": "0.5", "alpha": "0.5", "mse": ""},
]


@pytest.mark.parametrize(
    "comment, expected",
    [
        (f"{FINGERPRINT_KEY}=abc", "abc"),
        (f"{FINGERPRINT_KEY}=", ""),
        (f"{FINGERPRINT_KEY}=a=b", "a=b"),
        ("other=abc", None),
        (f"x{FINGERPRINT_KEY}=abc", None),
        (f"{FINGERPRINT_KEY} abc", None),
        (None, None),
    ],
    ids=["key", "empty-value", "value-with-equals", "other-key", "prefixed-key",
         "no-equals", "no-comment"],
)
def test_fingerprint_from_comment(comment, expected):
    assert fingerprint_from_comment(comment) == expected


class TestBackendConformance:
    def test_append_load_round_trip_stringifies_like_csv(self, backend):
        backend.append_rows("exp", ROWS)
        assert backend.load_rows("exp") == ROWS_LOADED

    def test_append_preserves_order_across_batches(self, backend):
        for i in range(5):
            backend.append_rows("exp", [{"i": i, "tag": f"row{i}"}])
        assert [row["i"] for row in backend.load_rows("exp")] == [
            "0", "1", "2", "3", "4"
        ]

    def test_empty_append_is_a_noop(self, backend):
        backend.append_rows("exp", [])
        assert not backend.has_rows("exp")

    def test_load_missing_experiment_raises(self, backend):
        with pytest.raises(ExperimentError, match="no saved results"):
            backend.load_rows("nothing")

    def test_header_comment_first_append_wins(self, backend):
        backend.append_rows("exp", ROWS[:1], header_comment="fp=first")
        backend.append_rows("exp", ROWS[1:], header_comment="fp=second")
        assert backend.read_header_comment("exp") == "fp=first"

    def test_header_comment_absent(self, backend):
        assert backend.read_header_comment("nothing") is None
        backend.append_rows("plain", ROWS)
        assert backend.read_header_comment("plain") is None

    @pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_multiline_header_comment_rejected(self, backend, newline):
        with pytest.raises(ExperimentError, match="single line"):
            backend.append_rows("bad", ROWS, header_comment=f"two{newline}lines")
        assert not backend.has_rows("bad")

    @pytest.mark.parametrize("newline", ["\n", "\r"], ids=["lf", "cr"])
    def test_multiline_experiment_id_rejected(self, backend, newline):
        """The id record is one line; an id spanning two cannot be kept."""
        with pytest.raises(ExperimentError, match="single line"):
            backend.append_rows(f"two{newline}lines", ROWS)
        assert backend.list_experiments() == []

    def test_fingerprint_parsed_from_comment(self, backend):
        backend.append_rows(
            "exp", ROWS, header_comment=f"{FINGERPRINT_KEY}=deadbeef"
        )
        assert backend.fingerprint("exp") == "deadbeef"

    def test_column_mismatch_rejected(self, backend):
        backend.append_rows("exp", [{"a": 1}])
        with pytest.raises(ExperimentError, match="columns"):
            backend.append_rows("exp", [{"b": 2}])
        with pytest.raises(ExperimentError, match="columns"):
            backend.append_rows("other", [{"a": 1}, {"b": 2}])

    @pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_newline_cells_rejected(self, backend, newline):
        with pytest.raises(ExperimentError, match="newlines"):
            backend.append_rows("bad", [{"a": f"two{newline}lines"}])
        assert not backend.has_rows("bad")

    @pytest.mark.parametrize(
        "value, stored",
        [
            (3, "3"),
            (0.1, "0.1"),
            (True, "True"),
            (None, ""),
            (np.float64(0.25), "0.25"),
            (np.int64(7), "7"),
            ("a,b", "a,b"),
            ('say "hi"', 'say "hi"'),
            ("#not a comment", "#not a comment"),
            ("", ""),
            ("Ünïcode", "Ünïcode"),
            (" padded ", " padded "),
        ],
        ids=["int", "float", "bool", "none", "np-float", "np-int", "comma",
             "quotes", "hash", "empty", "unicode", "padded"],
    )
    def test_cell_round_trips_as_its_str(self, backend, value, stored):
        """Cells load as ``str(value)`` (``None`` as ``""``), whatever CSV
        quoting they need; a first cell starting with ``#`` is data."""
        backend.append_rows("exp", [{"value": value, "tail": "end"}])
        backend.append_rows("exp", [{"value": value, "tail": "again"}])
        assert backend.load_rows("exp") == [
            {"value": stored, "tail": "end"},
            {"value": stored, "tail": "again"},
        ]

    def test_has_rows_and_list_experiments(self, backend):
        assert backend.list_experiments() == []
        assert not backend.has_rows("exp_b")
        backend.append_rows("exp_b", ROWS)
        backend.append_rows("exp_a", ROWS)
        backend.append_rows("Exp/C", ROWS)
        assert backend.has_rows("exp_b")
        assert backend.list_experiments() == ["Exp/C", "exp_a", "exp_b"]
        # Listed ids are real ids: they load and tag query rows as given.
        assert backend.load_rows("Exp/C") == ROWS_LOADED
        assert {row["experiment_id"] for row in backend.query()} == {
            "Exp/C", "exp_a", "exp_b"
        }

    @pytest.mark.parametrize(
        "experiment_id", ["Paper", "Sweep/Syn", "two words", "eps:2*alpha", "Ünïcode"]
    )
    def test_an_id_needing_sanitizing_keeps_its_name(self, backend, experiment_id):
        """An id the csv file stem cannot spell lists, loads, queries and
        fingerprints under its own name, also after the store is reopened."""
        backend.append_rows(
            experiment_id, ROWS, header_comment=f"{FINGERPRINT_KEY}=fp_name"
        )
        reopened = ResultsStore(backend.root)
        assert reopened.list_experiments() == [experiment_id]
        assert reopened.has_rows(experiment_id)
        assert reopened.load_rows(experiment_id) == ROWS_LOADED
        assert reopened.fingerprint(experiment_id) == "fp_name"
        assert {row["experiment_id"] for row in reopened.query()} == {
            experiment_id
        }

    def test_location_is_informative(self, backend):
        backend.append_rows("exp", ROWS)
        assert "exp" in backend.location("exp")

    def test_distinct_ids_never_share_rows(self, backend):
        """Ids that sanitize alike never share a file."""
        backend.append_rows("a/b", [{"x": "slash"}])
        backend.append_rows("a b", [{"x": "space"}])
        backend.append_rows("A_B", [{"x": "upper"}])
        assert [row["x"] for row in backend.load_rows("a/b")] == ["slash"]
        assert [row["x"] for row in backend.load_rows("a b")] == ["space"]
        assert [row["x"] for row in backend.load_rows("A_B")] == ["upper"]

    def test_empty_experiment_id_rejected(self, backend):
        with pytest.raises(ExperimentError, match="non-empty"):
            backend.append_rows("", [{"a": 1}])

    def test_a_new_store_on_the_root_reads_the_rows(self, backend):
        backend.append_rows("exp", ROWS)
        assert ResultsStore(backend.root).load_rows("exp") == ROWS_LOADED


class TestQuery:
    @pytest.fixture
    def populated(self, tmp_path):
        backend = ResultsStore(tmp_path)
        backend.append_rows(
            "sweep_syn",
            [
                {"protocol": "L-OSUE", "eps_inf": 0.5, "mse": 0.1},
                {"protocol": "L-OSUE", "eps_inf": 2.0, "mse": 0.2},
                {"protocol": "1BitFlipPM", "eps_inf": 2.0, "mse": 0.3},
            ],
            header_comment=f"{FINGERPRINT_KEY}=fp_one",
        )
        backend.append_rows(
            "sweep_adult",
            [{"protocol": "L-OSUE", "eps_inf": 5.0, "mse": 0.4}],
            header_comment=f"{FINGERPRINT_KEY}=fp_two",
        )
        return backend

    def test_no_filters_returns_everything_tagged(self, populated):
        rows = populated.query()
        assert len(rows) == 4
        assert {row["experiment_id"] for row in rows} == {"sweep_syn", "sweep_adult"}

    def test_experiment_filter(self, populated):
        rows = populated.query(experiment_id="sweep_adult")
        assert [row["mse"] for row in rows] == ["0.4"]
        assert populated.query(experiment_id="nothing") == []

    def test_fingerprint_filter_skips_other_experiments(self, populated):
        rows = populated.query(fingerprint="fp_one")
        assert len(rows) == 3
        assert all(row["experiment_id"] == "sweep_syn" for row in rows)
        assert populated.query(fingerprint="unknown") == []

    def test_protocol_and_eps_range_filters(self, populated):
        rows = populated.query(protocol="L-OSUE", eps_min=1.0)
        assert sorted(row["eps_inf"] for row in rows) == ["2.0", "5.0"]
        rows = populated.query(eps_min=1.0, eps_max=3.0)
        assert sorted(row["mse"] for row in rows) == ["0.2", "0.3"]

    def test_combined_filters(self, populated):
        rows = populated.query(
            fingerprint="fp_one", protocol="1BitFlipPM", eps_min=1.0, eps_max=2.5
        )
        assert [row["mse"] for row in rows] == ["0.3"]

    @pytest.mark.parametrize(
        "eps_min, eps_max, expected",
        [
            (0.5, None, ["0.1", "0.2", "0.3", "0.4"]),
            (None, 0.5, ["0.1"]),
            (2.0, 2.0, ["0.2", "0.3"]),
            (2.1, 4.9, []),
            (5.0, None, ["0.4"]),
            (None, 5.0, ["0.1", "0.2", "0.3", "0.4"]),
            (0.6, 1.9, []),
        ],
        ids=["min-at-lowest", "max-at-lowest", "point", "gap", "min-at-highest",
             "max-at-highest", "inner-gap"],
    )
    def test_eps_range_bounds_are_inclusive(self, populated, eps_min, eps_max, expected):
        rows = populated.query(eps_min=eps_min, eps_max=eps_max)
        assert sorted(row["mse"] for row in rows) == expected

    def test_rows_without_numeric_eps_never_match_range(self, tmp_path):
        backend = ResultsStore(tmp_path)
        backend.append_rows("exp", [{"protocol": "X", "note": "no eps"}])
        assert backend.query(eps_min=0.0) == []
        assert len(backend.query(protocol="X")) == 1


#: Results files that are not UTF-8 text from their first byte on.
_UNDECODABLE = {
    "latin-1": "caf\xe9,b\n1,2\n".encode("latin-1"),
    "utf-16": "a,b\n1,2\n".encode("utf-16"),
    "binary": bytes(range(128, 256)) + b"\n",
}


def _read_header_comment(store):
    return store.read_header_comment("exp")


def _fingerprint(store):
    return store.fingerprint("exp")


def _load_rows(store):
    return store.load_rows("exp")


def _list_experiments(store):
    return store.list_experiments()


def _query(store):
    return store.query()


def _append_rows(store):
    return store.append_rows("exp", [{"a": 1, "b": 2}])


class TestUndecodableCsv:
    """A results file that is not UTF-8 text is refused by every reader
    with an :class:`ExperimentError` naming it, never a bare
    ``UnicodeDecodeError``."""

    @pytest.mark.parametrize("damage", sorted(_UNDECODABLE))
    @pytest.mark.parametrize(
        "reader",
        [_read_header_comment, _fingerprint, _load_rows, _list_experiments,
         _query, _append_rows],
        ids=lambda reader: reader.__name__.lstrip("_"),
    )
    def test_api_raises_experiment_error(self, tmp_path, reader, damage):
        path = tmp_path / "exp.csv"
        path.write_bytes(_UNDECODABLE[damage])
        with pytest.raises(ExperimentError, match="not UTF-8") as caught:
            reader(ResultsStore(tmp_path))
        assert str(path) in str(caught.value)

    @pytest.mark.parametrize("damage", sorted(_UNDECODABLE))
    def test_query_cli_answers_error_line_and_exit_2(self, tmp_path, capsys, damage):
        (tmp_path / "exp.csv").write_bytes(_UNDECODABLE[damage])
        assert main(["query", "--dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "exp.csv" in err
        assert "Traceback" not in err


_KILL_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {src!r})
    from repro.store import ResultsStore
    backend = ResultsStore({root!r})
    i = 0
    while True:
        backend.append_rows(
            "victim",
            [{{"i": i * 3 + j, "payload": "x" * 64}} for j in range(3)],
        )
        i += 1
    """
)


class TestCrashSafety:
    def test_sigkill_mid_write_leaves_loadable_prefix(self, tmp_path):
        """Kill an appending writer at an arbitrary instant; the store must
        load cleanly and hold an uncorrupted prefix of the append sequence."""
        root = tmp_path / "csv"
        script = _KILL_SCRIPT.format(
            src=str((os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
                    + "/src"),
            root=str(root),
        )
        process = subprocess.Popen([sys.executable, "-c", script])
        backend = ResultsStore(root)
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if backend.has_rows("victim") and len(backend.load_rows("victim")) >= 9:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("writer produced no rows in time")
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait()
        rows = backend.load_rows("victim")
        assert rows, "all rows lost"
        # Every surviving row is complete and they form an exact prefix-free
        # subsequence 0..n-1 of what the writer appended, in order.
        for position, row in enumerate(rows):
            assert set(row) == {"i", "payload"}
            assert row["i"] == str(position)
            assert row["payload"] == "x" * 64

    def test_two_concurrent_writers_interleave_whole_batches(self, tmp_path):
        root = tmp_path / "csv"
        script = textwrap.dedent(
            """
            import sys
            sys.path.insert(0, sys.argv[1])
            from repro.store import ResultsStore
            backend = ResultsStore(sys.argv[2])
            writer = sys.argv[3]
            for i in range(20):
                backend.append_rows(
                    "shared", [{"writer": writer, "i": i}]
                )
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + "/src"
        workers = [
            subprocess.Popen([sys.executable, "-c", script, src, str(root), name])
            for name in ("alpha", "beta")
        ]
        for worker in workers:
            assert worker.wait(timeout=120) == 0
        rows = ResultsStore(root).load_rows("shared")
        assert len(rows) == 40
        for name in ("alpha", "beta"):
            mine = [int(row["i"]) for row in rows if row["writer"] == name]
            assert mine == list(range(20)), f"writer {name} rows reordered or lost"


class TestTornTail:
    @pytest.mark.parametrize("torn", [1, 7, 8, 9, 30], ids=lambda n: f"{n}-bytes")
    def test_append_cuts_a_torn_tail_across_scan_chunks(
        self, tmp_path, monkeypatch, torn
    ):
        """The backward scan for the last newline finds it whether the torn
        line ends inside, at or beyond a scan chunk boundary."""
        monkeypatch.setattr(results_store, "_TAIL_SCAN_CHUNK", 8)
        store = ResultsStore(tmp_path)
        path = store.append_rows("exp", [{"a": 1, "b": 2}])
        intact = path.read_bytes()
        with path.open("ab") as handle:
            handle.write(b"9" * torn)
        store.append_rows("exp", [{"a": 3, "b": 4}])
        assert path.read_bytes() == intact + b"3,4\r\n"
        assert store.load_rows("exp") == [{"a": "1", "b": "2"}, {"a": "3", "b": "4"}]

    def test_a_file_that_is_one_torn_line_is_rewritten(self, tmp_path, monkeypatch):
        monkeypatch.setattr(results_store, "_TAIL_SCAN_CHUNK", 8)
        (tmp_path / "exp.csv").write_bytes(b"a," * 20)
        store = ResultsStore(tmp_path)
        store.append_rows("exp", [{"a": 1, "b": 2}])
        assert (tmp_path / "exp.csv").read_bytes() == b"a,b\r\n1,2\r\n"


class TestLegacyInterop:
    def test_csv_without_an_id_record_lists_by_stem(self, tmp_path):
        """CSVs written before ids were recorded keep listing by file stem."""
        (tmp_path / "sweep_syn-ac71c1b6.csv").write_text(
            "# sweep_spec_fingerprint=abc\na\n1\n"
        )
        store = ResultsStore(tmp_path)
        assert store.list_experiments() == ["sweep_syn-ac71c1b6"]
        assert store.fingerprint("sweep_syn-ac71c1b6") == "abc"

    def test_an_id_record_the_stem_does_not_hash_to_is_ignored(self, tmp_path):
        """A CSV copied to another name lists by its new stem, not by an id
        that would load from a different file."""
        ResultsStore(tmp_path / "src").append_rows("Sweep/Syn", ROWS)
        (original,) = (tmp_path / "src").glob("*.csv")
        (tmp_path / "copy.csv").write_bytes(original.read_bytes())
        store = ResultsStore(tmp_path)
        assert store.list_experiments() == ["copy"]
        assert store.load_rows("copy") == ROWS_LOADED

    def test_blank_lines_around_the_leading_records_are_skipped(self, tmp_path):
        store = ResultsStore(tmp_path)
        path = store.append_rows(
            "Sweep/Syn", ROWS, header_comment=f"{FINGERPRINT_KEY}=abc"
        )
        path.write_bytes(b"\n" + path.read_bytes().replace(b"\n#", b"\n\n#"))
        assert store.list_experiments() == ["Sweep/Syn"]
        assert store.fingerprint("Sweep/Syn") == "abc"
        assert store.load_rows("Sweep/Syn") == ROWS_LOADED
