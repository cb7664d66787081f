"""Append / load / query throughput of the CSV results store.

* ``test_append_rows`` — many small batches into one experiment, the
  sweep-flush pattern (``SweepExecutor`` appends completed grid points as
  they finish);
* ``test_load_rows`` — full ordered read-back of one experiment, the
  resume pattern (``completed_points_from_rows`` scans every row);
* ``test_query_by_fingerprint`` — fingerprint-filtered query across many
  experiments (``repro-ldp query --fingerprint``); experiments whose header
  comment does not match are skipped without reading their rows.

Run with ``python -m pytest benchmarks/bench_store_backends.py
--benchmark-only`` (add ``--benchmark-json=...`` for machine-readable
output).
"""

import pytest

from repro.store import ResultsStore

N_BATCHES = 50
BATCH_ROWS = 20
N_EXPERIMENTS = 10
FINGERPRINT = "deadbeefdeadbeef"


def _row(index):
    return {
        "protocol": "L-OSUE" if index % 2 else "L-GRR",
        "eps_inf": str(0.5 + (index % 8) * 0.5),
        "alpha": "0.5",
        "mse_avg": f"{1.0 / (index + 1):.6e}",
        "run": str(index),
    }


def _batches():
    return [
        [_row(batch * BATCH_ROWS + offset) for offset in range(BATCH_ROWS)]
        for batch in range(N_BATCHES)
    ]


def _populated(root):
    """A store with N_EXPERIMENTS experiments, one fingerprint-tagged."""
    store = ResultsStore(root)
    for index in range(N_EXPERIMENTS):
        fingerprint = FINGERPRINT if index == 0 else f"{index:016x}"
        store.append_rows(
            f"sweep_{index}",
            [_row(i) for i in range(BATCH_ROWS)],
            header_comment=f"sweep_spec_fingerprint={fingerprint}",
        )
    return store


@pytest.mark.benchmark(group="store-append")
def test_append_rows(benchmark, tmp_path_factory):
    batches = _batches()
    counter = iter(range(10_000))

    def append():
        root = tmp_path_factory.mktemp(f"append_{next(counter)}")
        store = ResultsStore(root)
        for batch in batches:
            store.append_rows(
                "bench", batch,
                header_comment=f"sweep_spec_fingerprint={FINGERPRINT}",
            )
        return root

    benchmark(append)
    benchmark.extra_info["rows"] = N_BATCHES * BATCH_ROWS
    benchmark.extra_info["batches"] = N_BATCHES


@pytest.mark.benchmark(group="store-load")
def test_load_rows(benchmark, tmp_path):
    store = ResultsStore(tmp_path)
    for batch in _batches():
        store.append_rows("bench", batch)

    rows = benchmark(store.load_rows, "bench")
    assert len(rows) == N_BATCHES * BATCH_ROWS
    assert rows[0]["run"] == "0"
    benchmark.extra_info["rows"] = len(rows)


@pytest.mark.benchmark(group="store-query")
def test_query_by_fingerprint(benchmark, tmp_path):
    store = _populated(tmp_path)
    rows = benchmark(store.query, fingerprint=FINGERPRINT)
    assert len(rows) == BATCH_ROWS
    assert {row["experiment_id"] for row in rows} == {"sweep_0"}
    benchmark.extra_info["experiments"] = N_EXPERIMENTS
    benchmark.extra_info["matching_rows"] = len(rows)
