"""Conformance suite for the results backends.

Every test in :class:`TestBackendConformance` runs against each backend
kind (csv, sqlite) through one parametrized fixture — the
contract of :class:`repro.store.ResultsBackend` is whatever this file
asserts.  Separate classes cover crash safety under a mid-write SIGKILL,
concurrent writers, cross-backend migration, the sweep/CLI integration and
the coordinator's store-backed checkpointing.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.exceptions import ExperimentError, ParameterError
from repro.specs import ProtocolSpec, SweepSpec
from repro.cli import build_parser, main
from repro.store import (
    BACKENDS,
    FINGERPRINT_KEY,
    ResultsStore,
    SqliteBackend,
    detect_backend_kind,
    fingerprint_from_comment,
    make_backend,
    migrate_store,
)

KINDS = ("csv", "sqlite")


@pytest.fixture(params=KINDS)
def backend(request, tmp_path):
    with make_backend(request.param, tmp_path / request.param) as instance:
        yield instance


ROWS = [
    {"protocol": "L-OSUE", "eps_inf": 2.0, "alpha": 0.5, "mse": 0.25},
    {"protocol": "1BitFlipPM", "eps_inf": 0.5, "alpha": 0.5, "mse": None},
]
#: What every backend must return for ROWS: CSV stringification, None -> "".
ROWS_LOADED = [
    {"protocol": "L-OSUE", "eps_inf": "2.0", "alpha": "0.5", "mse": "0.25"},
    {"protocol": "1BitFlipPM", "eps_inf": "0.5", "alpha": "0.5", "mse": ""},
]


class TestRegistry:
    def test_all_builtin_kinds_registered(self):
        assert set(BACKENDS) == set(KINDS)
        for kind in KINDS:
            assert BACKENDS[kind].kind == kind

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="unknown results backend"):
            make_backend("oracle", tmp_path)

    def test_detect_backend_kind(self, tmp_path):
        for kind in KINDS:
            root = tmp_path / kind
            with make_backend(kind, root) as b:
                b.append_rows("exp", ROWS)
            assert detect_backend_kind(root) == kind

    def test_detect_prefers_sqlite_over_csv(self, tmp_path):
        for kind in ("csv", "sqlite"):
            with make_backend(kind, tmp_path) as b:
                b.append_rows("exp", ROWS)
        assert detect_backend_kind(tmp_path) == "sqlite"

    def test_detect_rejects_missing_and_unrecognizable(self, tmp_path):
        with pytest.raises(ExperimentError, match="no results directory"):
            detect_backend_kind(tmp_path / "absent")
        (tmp_path / "stray.txt").write_text("not a store\n")
        with pytest.raises(ExperimentError, match="no recognizable results store"):
            detect_backend_kind(tmp_path)

    def test_detect_rejects_a_columnar_parts_directory(self, tmp_path):
        """A ``*.parts`` store of the removed columnar backend is not a kind."""
        (tmp_path / "sweep_syn.parts").mkdir()
        (tmp_path / "sweep_syn.parts" / "part-000000.npz").write_bytes(b"PK")
        with pytest.raises(ExperimentError, match="no recognizable results store"):
            detect_backend_kind(tmp_path)

    def test_fingerprint_from_comment(self):
        assert fingerprint_from_comment(f"{FINGERPRINT_KEY}=abc") == "abc"
        assert fingerprint_from_comment("other=abc") is None
        assert fingerprint_from_comment(None) is None


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

    def test_multiline_header_comment_rejected(self, backend):
        with pytest.raises(ExperimentError, match="single line"):
            backend.append_rows("bad", ROWS, header_comment="two\nlines")

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

    def test_newline_cells_rejected(self, backend):
        with pytest.raises(ExperimentError, match="newlines"):
            backend.append_rows("bad", [{"a": "two\nlines"}])

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
        backend.close()
        with make_backend(backend.kind, backend.root) as reopened:
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
        """The sanitization-collision bugfix holds through every backend."""
        backend.append_rows("a/b", [{"x": "slash"}])
        backend.append_rows("a b", [{"x": "space"}])
        backend.append_rows("A_B", [{"x": "upper"}])
        assert [row["x"] for row in backend.load_rows("a/b")] == ["slash"]
        assert [row["x"] for row in backend.load_rows("a b")] == ["space"]
        assert [row["x"] for row in backend.load_rows("A_B")] == ["upper"]

    def test_empty_experiment_id_rejected(self, backend):
        with pytest.raises(ExperimentError, match="non-empty"):
            backend.append_rows("", [{"a": 1}])

    def test_context_manager_reopens(self, backend):
        backend.append_rows("exp", ROWS)
        backend.close()
        reopened = make_backend(backend.kind, backend.root)
        try:
            assert reopened.load_rows("exp") == ROWS_LOADED
        finally:
            reopened.close()


class TestQuery:
    @pytest.fixture(params=KINDS)
    def populated(self, request, tmp_path):
        with make_backend(request.param, tmp_path) as backend:
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
            yield backend

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

    def test_rows_without_numeric_eps_never_match_range(self, tmp_path):
        for kind in KINDS:
            with make_backend(kind, tmp_path / kind) as backend:
                backend.append_rows("exp", [{"protocol": "X", "note": "no eps"}])
                assert backend.query(eps_min=0.0) == []
                assert len(backend.query(protocol="X")) == 1


_KILL_SCRIPT = textwrap.dedent(
    """
    import sys
    sys.path.insert(0, {src!r})
    from repro.store import make_backend
    backend = make_backend({kind!r}, {root!r})
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
    @pytest.mark.parametrize("kind", KINDS)
    def test_sigkill_mid_write_leaves_loadable_prefix(self, kind, tmp_path):
        """Kill an appending writer at an arbitrary instant; the store must
        load cleanly and hold an uncorrupted prefix of the append sequence."""
        root = tmp_path / kind
        script = _KILL_SCRIPT.format(
            src=str((os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
                    + "/src"),
            kind=kind,
            root=str(root),
        )
        process = subprocess.Popen([sys.executable, "-c", script])
        try:
            deadline = time.monotonic() + 30.0
            backend = make_backend(kind, root)
            while time.monotonic() < deadline:
                if backend.has_rows("victim") and len(backend.load_rows("victim")) >= 9:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("writer produced no rows in time")
            backend.close()
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait()
        with make_backend(kind, root) as backend:
            rows = backend.load_rows("victim")
        assert rows, "all rows lost"
        # Every surviving row is complete and they form an exact prefix-free
        # subsequence 0..n-1 of what the writer appended, in order.
        for position, row in enumerate(rows):
            assert set(row) == {"i", "payload"}
            assert row["i"] == str(position)
            assert row["payload"] == "x" * 64

    @pytest.mark.parametrize("kind", KINDS)
    def test_two_concurrent_writers_interleave_whole_batches(self, kind, tmp_path):
        root = tmp_path / kind
        script = textwrap.dedent(
            """
            import sys
            sys.path.insert(0, sys.argv[1])
            from repro.store import make_backend
            backend = make_backend(sys.argv[2], sys.argv[3])
            writer = sys.argv[4]
            for i in range(20):
                backend.append_rows(
                    "shared", [{"writer": writer, "i": i}]
                )
            backend.close()
            """
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + "/src"
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script, src, kind, str(root), name]
            )
            for name in ("alpha", "beta")
        ]
        for worker in workers:
            assert worker.wait(timeout=120) == 0
        with make_backend(kind, root) as backend:
            rows = backend.load_rows("shared")
        assert len(rows) == 40
        for name in ("alpha", "beta"):
            mine = [int(row["i"]) for row in rows if row["writer"] == name]
            assert mine == list(range(20)), f"writer {name} rows reordered or lost"


class TestMigrateStore:
    def _populate(self, kind, root):
        with make_backend(kind, root) as backend:
            backend.append_rows(
                "sweep_syn", ROWS, header_comment=f"{FINGERPRINT_KEY}=fp_mig"
            )
            backend.append_rows("plain", [{"a": 1}])

    @pytest.mark.parametrize("source_kind", KINDS)
    @pytest.mark.parametrize("dest_kind", KINDS)
    def test_rows_and_comments_migrate_bit_identically(
        self, source_kind, dest_kind, tmp_path
    ):
        source, dest = tmp_path / "src", tmp_path / "dst"
        self._populate(source_kind, source)
        counts = migrate_store(source, dest, source_kind, dest_kind)
        assert counts == {"plain": 1, "sweep_syn": 2}
        with make_backend(dest_kind, dest) as backend:
            assert backend.load_rows("sweep_syn") == ROWS_LOADED
            assert backend.read_header_comment("sweep_syn") == (
                f"{FINGERPRINT_KEY}=fp_mig"
            )
            assert backend.read_header_comment("plain") is None

    def test_migrated_csv_is_byte_identical_to_direct_write(self, tmp_path):
        """csv -> sqlite -> csv reproduces the original file exactly."""
        first, db, second = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        self._populate("csv", first)
        migrate_store(first, db, "csv", "sqlite")
        migrate_store(db, second, "sqlite", "csv")
        assert (second / "sweep_syn.csv").read_bytes() == (
            first / "sweep_syn.csv"
        ).read_bytes()

    def test_refuses_existing_destination_experiment(self, tmp_path):
        source, dest = tmp_path / "src", tmp_path / "dst"
        self._populate("csv", source)
        with make_backend("sqlite", dest) as backend:
            backend.append_rows("plain", [{"a": 99}])
        with pytest.raises(ExperimentError, match="refusing to mix"):
            migrate_store(source, dest, "csv", "sqlite")
        # Untouched experiments migrate fine when selected explicitly.
        counts = migrate_store(
            source, dest, "csv", "sqlite", experiments=["sweep_syn"]
        )
        assert counts == {"sweep_syn": 2}

    def test_csv_to_sqlite_keeps_an_id_the_file_stem_cannot_spell(self, tmp_path):
        """``Sweep/Syn`` lives in ``sweep_syn-<hash>.csv`` but migrates, and
        resumes, under its own id."""
        with make_backend("csv", tmp_path) as backend:
            backend.append_rows(
                "Sweep/Syn", ROWS, header_comment=f"{FINGERPRINT_KEY}=fp_id"
            )
        assert migrate_store(tmp_path, tmp_path, "csv", "sqlite") == {"Sweep/Syn": 2}
        with make_backend("sqlite", tmp_path) as backend:
            assert backend.has_rows("Sweep/Syn")
            assert backend.load_rows("Sweep/Syn") == ROWS_LOADED
            assert backend.fingerprint("Sweep/Syn") == "fp_id"

    def test_sanitized_id_survives_csv_sqlite_csv_byte_for_byte(self, tmp_path):
        """The ``# experiment_id`` record is rewritten on the way back, so the
        round trip reproduces the original CSV exactly."""
        first, db, second = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        with make_backend("csv", first) as backend:
            backend.append_rows(
                "Sweep/Syn", ROWS, header_comment=f"{FINGERPRINT_KEY}=fp_rt"
            )
        migrate_store(first, db, "csv", "sqlite")
        assert migrate_store(db, second, "sqlite", "csv") == {"Sweep/Syn": 2}
        (original,) = first.glob("*.csv")
        assert original.read_text().startswith("# experiment_id=Sweep/Syn\n")
        assert (second / original.name).read_bytes() == original.read_bytes()

    def test_rerun_after_partial_migration_skips_identical_experiments(self, tmp_path):
        source, dest = tmp_path / "src", tmp_path / "dst"
        self._populate("csv", source)
        assert migrate_store(
            source, dest, "csv", "sqlite", experiments=["sweep_syn"]
        ) == {"sweep_syn": 2}
        assert migrate_store(source, dest, "csv", "sqlite") == {"plain": 1}
        with make_backend("sqlite", dest) as backend:
            assert backend.load_rows("sweep_syn") == ROWS_LOADED
            assert backend.load_rows("plain") == [{"a": "1"}]

    def test_rerun_refuses_a_destination_with_another_header_comment(self, tmp_path):
        source, dest = tmp_path / "src", tmp_path / "dst"
        self._populate("csv", source)
        with make_backend("sqlite", dest) as backend:
            backend.append_rows(
                "sweep_syn", ROWS, header_comment=f"{FINGERPRINT_KEY}=other"
            )
        with pytest.raises(ExperimentError, match="refusing to mix"):
            migrate_store(source, dest, "csv", "sqlite", experiments=["sweep_syn"])

    def test_empty_source_rejected(self, tmp_path):
        (tmp_path / "src").mkdir()
        with pytest.raises(ExperimentError, match="no experiments"):
            migrate_store(tmp_path / "src", tmp_path / "dst", "csv", "sqlite")


class TestSqliteSpecifics:
    def test_single_database_file_per_root(self, tmp_path):
        with SqliteBackend(tmp_path) as backend:
            backend.append_rows("one", [{"a": 1}])
            backend.append_rows("two", [{"a": 2}])
        stores = [p.name for p in tmp_path.iterdir() if p.suffix == ".sqlite"]
        assert stores == ["results.sqlite"]

    def test_fingerprint_query_uses_index_not_table_scan(self, tmp_path):
        """The query plan for a fingerprint filter must hit the fingerprint
        index — the acceptance criterion that queries do not load the
        whole table."""
        with SqliteBackend(tmp_path) as backend:
            backend.append_rows(
                "exp", ROWS, header_comment=f"{FINGERPRINT_KEY}=abc"
            )
            plan = backend._connect().execute(
                "EXPLAIN QUERY PLAN "
                "SELECT rows.data FROM rows JOIN experiments "
                "ON experiments.experiment_id = rows.experiment_id "
                "WHERE experiments.fingerprint = ?",
                ("abc",),
            ).fetchall()
        plan_text = " ".join(str(step) for step in plan)
        assert "idx_experiments_fingerprint" in plan_text

    def test_failed_append_rolls_back_entirely(self, tmp_path):
        with SqliteBackend(tmp_path) as backend:
            backend.append_rows("exp", [{"a": 1}])
            with pytest.raises(ExperimentError, match="columns"):
                backend.append_rows("exp", [{"a": 2}, {"b": 3}])
            assert [row["a"] for row in backend.load_rows("exp")] == ["1"]


def _garbage(database):
    database.write_bytes(b"not a database\n" * 64)


def _truncated(database):
    database.write_bytes(database.read_bytes()[:1024])


@pytest.mark.parametrize(
    "corrupt, message",
    [(_garbage, "file is not a database"), (_truncated, "malformed")],
    ids=["garbage", "truncated"],
)
class TestCorruptSqliteDatabase:
    """A damaged ``results.sqlite`` raises a typed error naming the file."""

    @pytest.fixture
    def root(self, tmp_path, corrupt):
        with SqliteBackend(tmp_path) as backend:
            for index in range(40):
                backend.append_rows(f"exp{index % 4}", [{"i": index, "pad": "x" * 200}])
        corrupt(tmp_path / "results.sqlite")
        return tmp_path

    @pytest.mark.parametrize(
        "call",
        [
            lambda backend: backend.has_rows("exp1"),
            lambda backend: backend.load_rows("exp1"),
            lambda backend: backend.list_experiments(),
            lambda backend: backend.query(),
            lambda backend: backend.append_rows("exp1", [{"i": 0, "pad": ""}]),
        ],
        ids=["has_rows", "load_rows", "list_experiments", "query", "append_rows"],
    )
    def test_api_raises_experiment_error(self, root, message, call):
        with SqliteBackend(root) as backend:
            with pytest.raises(ExperimentError, match=message) as caught:
                call(backend)
        assert "results.sqlite" in str(caught.value)

    def test_query_cli_answers_error_line_and_exit_2(self, root, message, capsys):
        assert main(["query", "--dir", str(root)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "results.sqlite" in err
        assert message in err and "Traceback" not in err


class TestSweepSpecStoreField:
    def _spec(self, **overrides):
        kwargs = dict(
            protocols=(ProtocolSpec(name="L-OSUE"),),
            eps_inf_values=(1.0,),
            alpha_values=(0.5,),
        )
        kwargs.update(overrides)
        return SweepSpec(**kwargs)

    def test_default_and_round_trip(self):
        spec = self._spec(store="sqlite")
        assert self._spec().store == "csv"
        assert SweepSpec.from_dict(spec.to_dict()).store == "sqlite"

    def test_unknown_store_rejected(self):
        with pytest.raises(ParameterError, match="unknown results store"):
            self._spec(store="oracle")

    def test_parquet_store_rejected_naming_the_kinds(self):
        with pytest.raises(ParameterError, match="available: csv, sqlite"):
            SweepSpec.from_dict({**self._spec().to_dict(), "store": "parquet"})

    def test_store_excluded_from_fingerprint(self):
        assert self._spec(store="csv").fingerprint() == self._spec(
            store="sqlite"
        ).fingerprint()


#: Every CLI option that picks a store kind, with the required arguments of
#: its subcommand and the namespace attribute it sets.
_STORE_KIND_OPTIONS = {
    "sweep --store": (
        ["sweep", "--spec", "s.json", "--output-dir", "out", "--store"], "store"
    ),
    "query --store": (["query", "--dir", "d", "--store"], "store"),
    "migrate-store --from": (
        ["migrate-store", "--source", "a", "--dest", "b", "--from"], "from_kind"
    ),
    "migrate-store --to": (
        ["migrate-store", "--source", "a", "--dest", "b", "--to"], "to_kind"
    ),
}


@pytest.mark.parametrize("option", sorted(_STORE_KIND_OPTIONS))
def test_cli_store_kind_options_offer_exactly_the_backends(option, capsys):
    argv, attribute = _STORE_KIND_OPTIONS[option]
    for kind in KINDS:
        assert getattr(build_parser().parse_args(argv + [kind]), attribute) == kind
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv + ["parquet"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'parquet'" in capsys.readouterr().err


class TestLegacyInterop:
    def test_results_store_and_csv_backend_share_files(self, tmp_path):
        """The csv backend is the ResultsStore: a directory written through
        either entry point is read through the other."""
        legacy = ResultsStore(tmp_path)
        legacy.append_rows("exp", [{"a": 1}], header_comment="fp=legacy")
        with make_backend("csv", tmp_path) as backend:
            assert type(backend) is ResultsStore
            assert backend.load_rows("exp") == [{"a": "1"}]
            assert backend.read_header_comment("exp") == "fp=legacy"
            backend.append_rows("exp", [{"a": 2}])
        assert [row["a"] for row in legacy.load_rows("exp")] == ["1", "2"]

    def test_csv_without_an_id_record_lists_by_stem(self, tmp_path):
        """CSVs written before ids were recorded keep listing by file stem."""
        (tmp_path / "sweep_syn-ac71c1b6.csv").write_text(
            "# sweep_spec_fingerprint=abc\na\n1\n"
        )
        store = ResultsStore(tmp_path)
        assert store.list_experiments() == ["sweep_syn-ac71c1b6"]
        assert store.fingerprint("sweep_syn-ac71c1b6") == "abc"
