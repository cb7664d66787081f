"""Tests for the results store."""

from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import ExperimentError
from repro.store import ResultsStore, safe_experiment_stem


class TestResultsStore:
    def test_json_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path)
        payload = {"mse": 0.1, "curve": np.asarray([1.0, 2.0]), "n": np.int64(5)}
        store.save_json("figure3", payload)
        loaded = store.load_json("figure3")
        assert loaded["mse"] == 0.1
        assert loaded["curve"] == [1.0, 2.0]
        assert loaded["n"] == 5

    def test_overwrite_protection(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.save_json("exp", {"a": 1})
        with pytest.raises(ExperimentError):
            store.save_json("exp", {"a": 2})
        store.save_json("exp", {"a": 2}, overwrite=True)
        assert store.load_json("exp")["a"] == 2

    def test_save_json_failed_encode_leaves_existing_document_intact(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.save_json("exp", {"a": 1})
        with pytest.raises(TypeError):
            store.save_json("exp", {"bad": object()}, overwrite=True)
        assert store.load_json("exp") == {"a": 1}
        leftovers = [p for p in tmp_path.iterdir() if p.name != "exp.json"]
        assert leftovers == []

    def test_csv_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path)
        rows = [{"protocol": "OLOLOHA", "mse": 0.01}, {"protocol": "RAPPOR", "mse": 0.02}]
        store.save_rows("table", rows)
        loaded = store.load_rows("table")
        assert loaded[0]["protocol"] == "OLOLOHA"
        assert float(loaded[1]["mse"]) == 0.02

    def test_csv_requires_consistent_columns(self, tmp_path):
        store = ResultsStore(tmp_path)
        with pytest.raises(ExperimentError):
            store.save_rows("bad", [{"a": 1}, {"b": 2}])

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            ResultsStore(tmp_path).save_rows("empty", [])

    def test_missing_files_raise(self, tmp_path):
        store = ResultsStore(tmp_path)
        with pytest.raises(ExperimentError):
            store.load_json("nothing")
        with pytest.raises(ExperimentError):
            store.load_rows("nothing")

    def test_list_experiments(self, tmp_path):
        store = ResultsStore(tmp_path)
        assert store.list_experiments() == []
        store.save_rows("b_exp", [{"a": 1}])
        store.append_rows("a_exp", [{"a": 1}])
        store.save_rows("C/Exp", [{"a": 1}])
        store.save_json("json_only", {})
        assert store.list_experiments() == ["C/Exp", "a_exp", "b_exp"]

    def test_id_record_written_only_when_the_stem_differs(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append_rows("plain", [{"a": 1}], header_comment="fp=1")
        store.append_rows("Odd id", [{"a": 1}], header_comment="fp=2")
        assert (tmp_path / "plain.csv").read_text().splitlines()[0] == "# fp=1"
        odd = Path(store.location("Odd id")).read_text().splitlines()
        assert odd[:2] == ["# experiment_id=Odd id", "# fp=2"]
        assert store.read_header_comment("Odd id") == "fp=2"
        assert store.load_rows("Odd id") == [{"a": "1"}]

    def test_multiline_id_rejected_when_it_must_be_recorded(self, tmp_path):
        with pytest.raises(ExperimentError, match="single line"):
            ResultsStore(tmp_path).append_rows("two\nlines", [{"a": 1}])


class TestHeaderCommentAndAtomicity:
    def test_append_rows_writes_header_comment_once(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append_rows("fp", [{"a": 1}], header_comment="spec_fingerprint=abc123")
        store.append_rows("fp", [{"a": 2}], header_comment="spec_fingerprint=zzz999")
        text = (tmp_path / "fp.csv").read_text()
        lines = text.strip().splitlines()
        # The comment of the file's creation wins; later comments are ignored.
        assert lines[0] == "# spec_fingerprint=abc123"
        assert lines[1] == "a"
        assert store.read_header_comment("fp") == "spec_fingerprint=abc123"

    def test_load_rows_skips_comment_lines(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append_rows("fp2", [{"a": 1}, {"a": 2}], header_comment="k=v")
        rows = store.load_rows("fp2")
        assert [row["a"] for row in rows] == ["1", "2"]

    def test_read_header_comment_absent(self, tmp_path):
        store = ResultsStore(tmp_path)
        assert store.read_header_comment("nothing") is None
        store.append_rows("plain", [{"a": 1}])
        assert store.read_header_comment("plain") is None

    def test_fingerprint_of_an_unknown_comment_raises_naming_the_file(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append_rows("plain", [{"a": 1}])
        assert store.fingerprint("plain") is None
        store.append_rows("other", [{"a": 1}], header_comment="sweep_spec_fingerprinu=ab")
        with pytest.raises(ExperimentError, match="unknown header comment") as excinfo:
            store.fingerprint("other")
        assert store.location("other") in str(excinfo.value)

    def test_multiline_header_comment_rejected(self, tmp_path):
        store = ResultsStore(tmp_path)
        with pytest.raises(ExperimentError, match="single line"):
            store.append_rows("bad", [{"a": 1}], header_comment="two\nlines")

    def test_multiline_header_comment_rejected_for_existing_file(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append_rows("bad", [{"a": 1}], header_comment="k=v")
        with pytest.raises(ExperimentError, match="single line"):
            store.append_rows("bad", [{"a": 2}], header_comment="two\nlines")
        assert [row["a"] for row in store.load_rows("bad")] == ["1"]

    def test_append_flush_is_atomic_no_temp_left_behind(self, tmp_path):
        """Flushes go through temp+rename: no partial CSV state is visible."""
        store = ResultsStore(tmp_path)
        store.append_rows("atomic", [{"a": 1}])
        store.append_rows("atomic", [{"a": 2}])
        # Only the finished CSV remains — no stranded staging files.
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "atomic.csv"]
        assert leftovers == []
        assert len(store.load_rows("atomic")) == 2

    def test_append_to_commented_csv_preserves_comment(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append_rows("keep", [{"a": 1}], header_comment="fp=1")
        store.append_rows("keep", [{"a": 2}])
        lines = (tmp_path / "keep.csv").read_text().strip().splitlines()
        assert lines == ["# fp=1", "a", "1", "2"]

    def test_append_to_commented_csv_checks_columns(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append_rows("cols", [{"a": 1}], header_comment="fp=1")
        with pytest.raises(ExperimentError, match="existing columns"):
            store.append_rows("cols", [{"b": 1}])


class TestHashPrefixedDataRows:
    """Only lines *above* the header are comments; '#'-leading cells are data."""

    def test_hash_prefixed_cell_survives_append_load_round_trip(self, tmp_path):
        store = ResultsStore(tmp_path)
        rows = [{"label": "#special"}, {"label": "ok"}]
        store.append_rows("hashes", rows)
        loaded = store.load_rows("hashes")
        assert [row["label"] for row in loaded] == ["#special", "ok"]

    def test_hash_prefixed_cell_survives_with_fingerprint_comment(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.append_rows(
            "hashes_fp",
            [{"label": "#special", "x": 1}],
            header_comment="sweep_spec_fingerprint=abc",
        )
        store.append_rows("hashes_fp", [{"label": "#another", "x": 2}])
        assert store.read_header_comment("hashes_fp") == "sweep_spec_fingerprint=abc"
        loaded = store.load_rows("hashes_fp")
        assert [row["label"] for row in loaded] == ["#special", "#another"]

    def test_hash_prefixed_cell_survives_save_rows(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.save_rows("saved", [{"label": "#1"}, {"label": "plain"}])
        assert [row["label"] for row in store.load_rows("saved")] == ["#1", "plain"]


class TestAppendModeAndTornTails:
    def test_append_does_not_rewrite_the_file(self, tmp_path):
        """Flushes are O(batch): the inode survives, earlier bytes are a
        stable prefix (the old implementation rewrote the whole CSV)."""
        store = ResultsStore(tmp_path)
        path = store.append_rows("incr", [{"a": 1}])
        inode = path.stat().st_ino
        before = path.read_bytes()
        store.append_rows("incr", [{"a": 2}])
        after = path.read_bytes()
        assert path.stat().st_ino == inode
        assert after.startswith(before)
        assert len(store.load_rows("incr")) == 2

    def test_load_rows_drops_single_torn_trailing_line(self, tmp_path):
        store = ResultsStore(tmp_path)
        path = store.append_rows("torn", [{"a": 1, "b": 2}, {"a": 3, "b": 4}])
        with path.open("ab") as handle:
            handle.write(b"5,")  # a flush killed mid-write
        rows = store.load_rows("torn")
        assert [(row["a"], row["b"]) for row in rows] == [("1", "2"), ("3", "4")]

    def test_append_after_torn_tail_repairs_before_appending(self, tmp_path):
        store = ResultsStore(tmp_path)
        path = store.append_rows("repair", [{"a": 1, "b": 2}])
        with path.open("ab") as handle:
            handle.write(b"99,")  # torn row from a crashed writer
        store.append_rows("repair", [{"a": 5, "b": 6}])
        rows = store.load_rows("repair")
        assert [(row["a"], row["b"]) for row in rows] == [("1", "2"), ("5", "6")]

    def test_multiline_cell_values_rejected(self, tmp_path):
        """A quoted multi-line cell could tear between physical lines with
        the last byte a newline — invisible to the torn-tail guard — so
        append_rows refuses embedded newlines outright."""
        store = ResultsStore(tmp_path)
        with pytest.raises(ExperimentError, match="newlines"):
            store.append_rows("nl", [{"a": "two\nlines"}])

    def test_torn_header_line_recovers(self, tmp_path):
        """A writer killed during the very first flush leaves a torn header;
        the next append rewrites a complete one."""
        store = ResultsStore(tmp_path)
        path = tmp_path / "fresh.csv"
        path.write_bytes(b"a,")  # torn header, no newline
        store.append_rows("fresh", [{"a": 1, "b": 2}])
        rows = store.load_rows("fresh")
        assert [(row["a"], row["b"]) for row in rows] == [("1", "2")]


class TestConcurrentAppends:
    def test_racing_first_appends_write_one_header(self, tmp_path, monkeypatch):
        """Two writers that both find the CSV empty must not both write a
        header: the second header would load as a data row."""
        import csv
        import threading

        store = ResultsStore(tmp_path)
        inside, release = threading.Event(), threading.Event()
        original = csv.DictWriter.writeheader

        def gated_writeheader(writer):
            # Park the first writer between its "file is empty" check and
            # its write, the window in which the second writer arrives.
            if threading.current_thread().name == "first":
                inside.set()
                release.wait(timeout=30)
            return original(writer)

        monkeypatch.setattr(csv.DictWriter, "writeheader", gated_writeheader)
        first = threading.Thread(
            target=store.append_rows, args=("race", [{"a": 1}]), name="first"
        )
        second = threading.Thread(
            target=store.append_rows, args=("race", [{"a": 2}]), name="second"
        )
        first.start()
        assert inside.wait(timeout=30)
        second.start()
        second.join(timeout=0.5)
        release.set()
        first.join(timeout=30)
        second.join(timeout=30)
        assert not first.is_alive() and not second.is_alive()
        assert (tmp_path / "race.csv").read_text().splitlines().count("a") == 1
        assert sorted(row["a"] for row in store.load_rows("race")) == ["1", "2"]


class TestSafeExperimentStem:
    """Regression tests for the id-sanitization collision (`"a/b"`, `"a b"`
    and `"A_B"` all mapped to `a_b.*`, silently interleaving their rows)."""

    def test_safe_ids_keep_their_historical_filenames(self):
        for experiment_id in ("table1", "sweep_syn", "demo.run-2"):
            assert safe_experiment_stem(experiment_id) == experiment_id

    def test_ambiguous_ids_get_distinct_stems(self):
        stems = {safe_experiment_stem(i) for i in ("a/b", "a b", "A_B", "a_b")}
        assert len(stems) == 4

    def test_mapping_is_deterministic(self):
        assert safe_experiment_stem("a/b") == safe_experiment_stem("a/b")

    def test_invalid_ids_rejected(self):
        with pytest.raises(ExperimentError):
            safe_experiment_stem("")
        with pytest.raises(ExperimentError):
            safe_experiment_stem(None)

    def test_cross_id_append_does_not_interleave(self, tmp_path):
        """Two ids that used to collide write and read back independently."""
        store = ResultsStore(tmp_path)
        store.append_rows("a/b", [{"x": "slash"}])
        store.append_rows("a b", [{"x": "space"}])
        store.append_rows("A_B", [{"x": "upper"}])
        store.append_rows("a_b", [{"x": "safe"}])
        assert [r["x"] for r in store.load_rows("a/b")] == ["slash"]
        assert [r["x"] for r in store.load_rows("a b")] == ["space"]
        assert [r["x"] for r in store.load_rows("A_B")] == ["upper"]
        assert [r["x"] for r in store.load_rows("a_b")] == ["safe"]
        assert len(list(tmp_path.glob("*.csv"))) == 4

    def test_json_and_csv_of_one_id_share_a_stem(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.save_json("Mixed Case", {"v": 1})
        store.append_rows("Mixed Case", [{"v": 1}])
        stems = {path.stem for path in tmp_path.iterdir()}
        assert len(stems) == 1


class TestReaderAlignment:
    """`read_header_comment` must agree with `load_rows` on what counts as
    the comment block: a blank line above the fingerprint comment used to
    make the rows load fine while the comment 'disappeared', silently
    downgrading the sweep --resume fingerprint check."""

    def test_comment_found_after_leading_blank_lines(self, tmp_path):
        store = ResultsStore(tmp_path)
        (tmp_path / "padded.csv").write_text(
            "\n\n# sweep_spec_fingerprint=abc\na\n1\n"
        )
        assert store.read_header_comment("padded") == "sweep_spec_fingerprint=abc"
        assert [row["a"] for row in store.load_rows("padded")] == ["1"]

    def test_blank_lines_then_header_means_no_comment(self, tmp_path):
        store = ResultsStore(tmp_path)
        (tmp_path / "blank.csv").write_text("\na\n1\n")
        assert store.read_header_comment("blank") is None
        assert [row["a"] for row in store.load_rows("blank")] == ["1"]

    def test_data_row_hash_is_not_a_comment(self, tmp_path):
        store = ResultsStore(tmp_path)
        (tmp_path / "data.csv").write_text("a\n#cell\n")
        assert store.read_header_comment("data") is None


class TestJsonifyNumpyBool:
    def test_np_bool_round_trips_through_save_json(self, tmp_path):
        """np.bool_ is not an np.integer subclass; save_json used to raise
        TypeError on any payload holding a numpy comparison result."""
        store = ResultsStore(tmp_path)
        store.save_json(
            "flags",
            {
                "converged": np.bool_(True),
                "clipped": np.bool_(False),
                "mask": np.asarray([1.0, -1.0]) > 0,
            },
        )
        loaded = store.load_json("flags")
        assert loaded["converged"] is True
        assert loaded["clipped"] is False
        assert loaded["mask"] == [True, False]
