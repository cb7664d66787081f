"""Corrupt on-disk state fails with typed errors, and closes its files.

Every truncation prefix and every single-bit flip of a sweep results CSV
and of a sweep event log either loads or raises a typed ``repro`` error
naming the file, and no single-bit flip of a sweep CSV's fingerprint
comment lets ``sweep --resume`` keep rows of another spec.  A checkpoint
``.npz`` that is refused leaves no file handle open.
"""

import gc
import warnings

import pytest

from repro.cli import main
from repro.exceptions import ExperimentError, ReproError
from repro.obs.events import iter_events
from repro.service import CollectorSession
from repro.specs import ProtocolSpec, SweepSpec
from repro.store import ResultsStore
from repro.store.results_store import _read_header_fields

#: Kinds of damage: every proper prefix, or every single flip of one bit.
DAMAGES = ["truncation"] + [f"bit-{bit}" for bit in range(8)]


def _damaged_copies(blob, damage):
    """``(label, bytes)`` for every copy of ``blob`` one ``damage`` makes."""
    if damage == "truncation":
        for size in range(len(blob)):
            yield f"{size}-byte prefix", blob[:size]
        return
    bit = int(damage.split("-")[1])
    for position in range(len(blob)):
        flipped = bytearray(blob)
        flipped[position] ^= 1 << bit
        yield f"bit {bit} of byte {position}", bytes(flipped)


@pytest.fixture(scope="module")
def sweep_files(tmp_path_factory):
    """A 2-point sweep's results CSV and event log, as bytes.

    The experiment id ``Robust_syn`` needs sanitizing, so the CSV carries
    all three leading records: the id, the spec fingerprint and the header.
    """
    root = tmp_path_factory.mktemp("sweep")
    spec = SweepSpec(
        name="Robust",
        protocols=(
            ProtocolSpec(name="L-OSUE"),
            ProtocolSpec(name="dBitFlipPM", label="1BitFlipPM", params={"d": 1}),
        ),
        eps_inf_values=(2.0,),
        alpha_values=(0.5,),
        datasets=("syn",),
        dataset_scale=0.02,
        seed=11,
    )
    grid = spec.save(root / "grid.json")
    out, events = root / "out", root / "events.jsonl"
    argv = ["sweep", "--spec", str(grid), "--output-dir", str(out)]
    assert main(argv + ["--events", str(events)]) == 0
    (csv_path,) = out.glob("*.csv")
    assert csv_path.read_text().startswith("# experiment_id=Robust_syn\n")
    return csv_path.name, csv_path.read_bytes(), events.read_bytes()


def _read_everything(root, name):
    """Drive every CSV reader of the store over one results file."""
    store = ResultsStore(root)
    _read_header_fields(root / name)
    for experiment_id in store.list_experiments():
        store.fingerprint(experiment_id)
        store.load_rows(experiment_id)
    store.query(protocol="L-OSUE", eps_min=1.0)


@pytest.mark.parametrize("damage", DAMAGES)
def test_every_damaged_sweep_csv_loads_or_raises_experiment_error(
    tmp_path, sweep_files, damage
):
    name, blob, _ = sweep_files
    path = tmp_path / name
    refused = 0
    for label, content in _damaged_copies(blob, damage):
        path.write_bytes(content)
        try:
            _read_everything(tmp_path, name)
        except ExperimentError as error:
            refused += 1
            assert str(path) in str(error), label
    if damage == "bit-7":
        # Every high-bit flip makes the file undecodable.
        assert refused == len(blob)


def test_query_on_an_undecodable_csv_answers_error_and_exit_2(
    tmp_path, sweep_files, capsys
):
    name, blob, _ = sweep_files
    flipped = bytearray(blob)
    flipped[len(blob) // 2] ^= 0x80
    (tmp_path / name).write_bytes(bytes(flipped))
    assert main(["query", "--dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert "not UTF-8" in err and "Traceback" not in err


@pytest.fixture(scope="module")
def one_point_sweep(tmp_path_factory):
    """``(spec, csv bytes)`` of a 1-point, 1-run sweep whose CSV starts
    with its fingerprint comment (the id ``fp_syn`` needs no record)."""
    root = tmp_path_factory.mktemp("one_point")
    spec = SweepSpec(
        name="fp",
        protocols=(ProtocolSpec(name="L-OSUE"),),
        eps_inf_values=(2.0,),
        alpha_values=(0.5,),
        datasets=("syn",),
        n_runs=1,
        dataset_scale=0.02,
        seed=11,
    )
    grid = spec.save(root / "grid.json")
    out = root / "out"
    assert main(["sweep", "--spec", str(grid), "--output-dir", str(out)]) == 0
    blob = (out / "fp_syn.csv").read_bytes()
    assert blob.startswith(b"# sweep_spec_fingerprint=")
    return spec, blob


@pytest.mark.parametrize("bit", range(8))
def test_no_flip_of_the_fingerprint_comment_keeps_rows_of_another_spec(
    tmp_path, one_point_sweep, capsys, bit
):
    """Resuming under a changed ``n_runs`` must refuse the damaged CSV or
    recompute its point: no flipped bit of the comment line may let the
    ``n_runs=1`` row count as complete."""
    spec, blob = one_point_sweep
    grid = SweepSpec.from_dict({**spec.to_dict(), "n_runs": 2}).save(
        tmp_path / "grid.json"
    )
    out = tmp_path / "out"
    out.mkdir()
    path = out / "fp_syn.csv"
    comment_length = blob.index(b"\n") + 1
    for position in range(comment_length):
        flipped = bytearray(blob)
        flipped[position] ^= 1 << bit
        path.write_bytes(bytes(flipped))
        code = main(
            ["sweep", "--spec", str(grid), "--output-dir", str(out), "--resume"]
        )
        captured = capsys.readouterr()
        label = f"bit {bit} of byte {position}"
        assert "Traceback" not in captured.err, label
        if code == 2:
            assert captured.err.startswith("error: "), label
            assert path.read_bytes() == bytes(flipped), label
        else:
            assert code == 0, label
            assert "(0 already complete, 1 to run" in captured.out, label


@pytest.mark.parametrize("damage", DAMAGES)
def test_every_damaged_event_log_loads_or_raises_repro_error(
    tmp_path, sweep_files, damage
):
    _, _, blob = sweep_files
    assert blob.count(b"\n") >= 3
    path = tmp_path / "events.jsonl"
    refused = 0
    for label, content in _damaged_copies(blob, damage):
        path.write_bytes(content)
        try:
            list(iter_events(path))
        except ReproError as error:
            refused += 1
            assert str(path) in str(error), label
    if damage == "bit-7":
        assert refused == len(blob)


# --------------------------------------------------------------------- #
# Refused .npz checkpoints close their file
# --------------------------------------------------------------------- #
def _session_checkpoint(path, dataset):
    spec = ProtocolSpec(name="L-OSUE", k=dataset.k, eps_inf=2.0, eps_1=1.0)
    session = CollectorSession(spec, n_rounds=dataset.n_rounds)
    session.checkpoint(path)
    return lambda damaged: CollectorSession.restore(damaged)


def _npz_damages(blob, damage):
    """Positions and damaged copies of a checkpoint archive.

    ``central-directory`` flips one bit in each byte of the zip central
    directory, where a file still looks like a zip but fails to open as
    one; ``member-data`` flips one bit in each byte before it, so the
    archive opens and a member fails to read; ``truncation`` cuts the
    file at every length.
    """
    directory = blob.find(b"PK\x01\x02")
    if damage == "truncation":
        for size in range(len(blob)):
            yield size, blob[:size]
        return
    positions = (
        range(directory, len(blob))
        if damage == "central-directory"
        else range(directory)
    )
    for position in positions:
        flipped = bytearray(blob)
        flipped[position] ^= 0x01
        yield position, bytes(flipped)


@pytest.mark.parametrize(
    "damage", ["central-directory", "member-data", "truncation"]
)
@pytest.mark.parametrize(
    "make_checkpoint",
    [_session_checkpoint],
    ids=["session-restore"],
)
def test_refused_npz_loads_leave_no_file_open(
    tmp_path, tiny_dataset, make_checkpoint, damage
):
    """Every refused load must close the file it opened.

    Each damaged copy gets its own file name, so one collection after the
    loop attributes any leaked handle to the damage that caused it."""
    checkpoint = tmp_path / "checkpoint.npz"
    load = make_checkpoint(checkpoint, tiny_dataset)
    blob = checkpoint.read_bytes()
    damaged_dir = tmp_path / "damaged"
    damaged_dir.mkdir()
    refused = 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for position, content in _npz_damages(blob, damage):
            damaged = damaged_dir / f"at-{position}.npz"
            damaged.write_bytes(content)
            try:
                load(damaged)
            except ReproError:
                refused += 1
            damaged.unlink()
        gc.collect()
    leaks = [
        str(warning.message)
        for warning in caught
        if issubclass(warning.category, ResourceWarning)
        and str(damaged_dir) in str(warning.message)
    ]
    assert not leaks, leaks[0]
    assert refused > 0
