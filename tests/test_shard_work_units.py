"""Tests for the shard work units of ``simulate_protocol_sharded``.

A sharded simulation splits the population into contiguous user slices
(:func:`shard_boundaries`), turns each slice into a picklable
:class:`ShardTask` (:func:`make_shard_tasks`), runs it to a
:class:`ShardSummary` (:func:`run_shard_task`) and merges the summaries with
:class:`ShardedSink` (:func:`result_from_summaries`).  These tests pin each
step for every protocol of the paper's Section 5 grid plus the one-shot
L-GRR collection:

* the steps run by hand reproduce ``simulate_protocol_sharded`` exactly;
* tasks and summaries survive the pickling a process pool applies;
* the merge is exact in any order and grouping;
* uneven splits on a pool stay bit-identical to the serial run;
* malformed inputs fail with typed errors.
"""

import pickle

import numpy as np
import pytest

from repro.exceptions import AggregationError, ExperimentError, ParameterError
from repro.experiments.empirical import EMPIRICAL_PROTOCOLS, paper_protocol_specs
from repro.registry import build_protocol
from repro.simulation import simulate_protocol_sharded
from repro.simulation.runner import (
    ShardTask,
    make_shard_tasks,
    result_from_summaries,
    run_shard_task,
    shard_boundaries,
)
from repro.simulation.sinks import ShardedSink, ShardSummary
from repro.specs import ProtocolSpec

LABELS = EMPIRICAL_PROTOCOLS + ("L-GRR-oneshot",)


def _spec_and_dataset(label, tiny_dataset, oneshot_dataset):
    """The protocol spec and workload of one test label."""
    if label == "L-GRR-oneshot":
        return ProtocolSpec(name="L-GRR", eps_inf=1.0, alpha=0.5), oneshot_dataset
    return paper_protocol_specs()[label].at(eps_inf=2.0, alpha=0.5), tiny_dataset


def _assert_same_result(left, right):
    assert np.array_equal(left.estimates, right.estimates)
    assert np.array_equal(
        left.distinct_memoized_per_user, right.distinct_memoized_per_user
    )
    assert left.mse_avg == right.mse_avg
    assert left.eps_avg == right.eps_avg


def _assert_same_summary(left, right):
    assert np.array_equal(left.support_counts, right.support_counts)
    assert np.array_equal(
        left.distinct_memoized_per_user, right.distinct_memoized_per_user
    )
    assert left.n_users == right.n_users


@pytest.mark.parametrize("label", LABELS)
class TestShardPipelinePerProtocol:
    def test_tasks_run_by_hand_reproduce_sharded_result(
        self, label, tiny_dataset, oneshot_dataset
    ):
        spec, dataset = _spec_and_dataset(label, tiny_dataset, oneshot_dataset)
        tasks = make_shard_tasks(spec, dataset, n_shards=3, rng=21)
        summaries = [run_shard_task(task, dataset) for task in tasks]
        by_hand = result_from_summaries(spec, dataset, summaries)
        whole = simulate_protocol_sharded(spec, dataset, n_shards=3, rng=21)
        _assert_same_result(by_hand, whole)
        assert by_hand.extra["n_shards"] == 3

    def test_pickled_tasks_and_summaries_reproduce_the_originals(
        self, label, tiny_dataset, oneshot_dataset
    ):
        """A process pool pickles each task out and each summary back; the
        round trip must not change a single count."""
        spec, dataset = _spec_and_dataset(label, tiny_dataset, oneshot_dataset)
        for task in make_shard_tasks(spec, dataset, n_shards=2, rng=4):
            shipped = pickle.loads(pickle.dumps(task))
            assert isinstance(shipped, ShardTask)
            assert (shipped.start, shipped.stop) == (task.start, task.stop)
            assert shipped.spec == task.spec
            summary = run_shard_task(task, dataset)
            _assert_same_summary(run_shard_task(shipped, dataset), summary)
            _assert_same_summary(pickle.loads(pickle.dumps(summary)), summary)

    def test_merge_order_and_grouping_keep_counts_bit_identical(
        self, label, tiny_dataset, oneshot_dataset
    ):
        spec, dataset = _spec_and_dataset(label, tiny_dataset, oneshot_dataset)
        summaries = [
            run_shard_task(task, dataset)
            for task in make_shard_tasks(spec, dataset, n_shards=4, rng=8)
        ]
        forward = ShardedSink()
        for summary in summaries:
            forward.absorb(summary)
        backward = ShardedSink()
        for summary in reversed(summaries):
            backward.absorb(summary)
        left, right = ShardedSink(), ShardedSink()
        for summary in summaries[:1]:
            left.absorb(summary)
        for summary in summaries[1:]:
            right.absorb(summary)
        grouped = left.merge(right)
        assert np.array_equal(forward.support_counts, backward.support_counts)
        assert np.array_equal(forward.support_counts, grouped.support_counts)
        assert forward.n_users == backward.n_users == grouped.n_users
        assert forward.n_users == dataset.n_users
        # Per-user budgets follow absorption order, not shard order.
        assert np.array_equal(
            backward.distinct_memoized_per_user,
            np.concatenate(
                [s.distinct_memoized_per_user for s in reversed(summaries)]
            ),
        )
        assert np.array_equal(
            grouped.distinct_memoized_per_user, forward.distinct_memoized_per_user
        )

    def test_spec_path_matches_protocol_object_path(
        self, label, tiny_dataset, oneshot_dataset
    ):
        spec, dataset = _spec_and_dataset(label, tiny_dataset, oneshot_dataset)
        from_protocol = simulate_protocol_sharded(
            build_protocol(spec.at(k=dataset.k)), dataset, n_shards=3, rng=5
        )
        from_spec = simulate_protocol_sharded(spec, dataset, n_shards=3, rng=5)
        _assert_same_result(from_protocol, from_spec)

    def test_summaries_describe_their_own_user_slice(
        self, label, tiny_dataset, oneshot_dataset
    ):
        spec, dataset = _spec_and_dataset(label, tiny_dataset, oneshot_dataset)
        domain = build_protocol(spec.at(k=dataset.k)).estimation_domain_size
        tasks = make_shard_tasks(spec, dataset, n_shards=3, rng=13)
        for task in tasks:
            summary = run_shard_task(task, dataset)
            n_shard_users = task.stop - task.start
            assert summary.n_users == n_shard_users
            assert summary.support_counts.shape == (dataset.n_rounds, domain)
            counts = summary.support_counts
            assert np.array_equal(counts, np.round(counts))
            assert counts.min() >= 0
            assert counts.max() <= n_shard_users
            assert summary.distinct_memoized_per_user.shape == (n_shard_users,)
            assert summary.distinct_memoized_per_user.min() >= 1
        assert sum(task.stop - task.start for task in tasks) == dataset.n_users

    def test_pooled_uneven_split_bit_identical_to_serial(
        self, label, tiny_dataset, oneshot_dataset
    ):
        """Seven shards of a population seven does not divide, on fewer
        workers than shards, still reproduce the serial run."""
        spec, dataset = _spec_and_dataset(label, tiny_dataset, oneshot_dataset)
        assert dataset.n_users % 7 != 0
        serial = simulate_protocol_sharded(spec, dataset, n_shards=7, rng=31)
        pooled = simulate_protocol_sharded(
            spec, dataset, n_shards=7, rng=31, n_workers=3
        )
        _assert_same_result(serial, pooled)


@pytest.mark.parametrize(
    "n_users, n_shards",
    [
        (1, 1),
        (2, 2),
        (3, 1),
        (5, 3),
        (7, 7),
        (10, 3),
        (10, 4),
        (100, 7),
        (120, 7),
        (200, 9),
        (1000, 16),
        (100_003, 64),
    ],
)
def test_boundaries_are_an_even_contiguous_cover(n_users, n_shards):
    boundaries = shard_boundaries(n_users, n_shards)
    assert boundaries.dtype == np.int64
    assert boundaries.shape == (n_shards + 1,)
    assert boundaries[0] == 0 and boundaries[-1] == n_users
    sizes = np.diff(boundaries)
    assert sizes.min() >= 1
    assert sizes.max() - sizes.min() <= 1
    assert np.array_equal(shard_boundaries(n_users, n_shards), boundaries)


@pytest.mark.parametrize(
    "n_shards, error",
    [
        (0, ParameterError),
        (-1, ParameterError),
        (2.5, ParameterError),
        ("3", ParameterError),
        (True, ParameterError),
        (11, ExperimentError),
    ],
)
def test_invalid_shard_counts_are_refused(n_shards, error):
    with pytest.raises(error):
        shard_boundaries(10, n_shards)


@pytest.mark.parametrize("n_workers", [0, -2, 1.5])
def test_invalid_worker_counts_are_refused(n_workers, tiny_dataset):
    spec = ProtocolSpec(name="L-OSUE", eps_inf=2.0, alpha=0.5)
    with pytest.raises(ParameterError, match="n_workers"):
        simulate_protocol_sharded(
            spec, tiny_dataset, n_shards=2, rng=0, n_workers=n_workers
        )


def test_more_workers_than_shards_bit_identical(tiny_dataset):
    spec = ProtocolSpec(name="L-OSUE", eps_inf=2.0, alpha=0.5)
    serial = simulate_protocol_sharded(spec, tiny_dataset, n_shards=2, rng=3)
    pooled = simulate_protocol_sharded(
        spec, tiny_dataset, n_shards=2, rng=3, n_workers=4
    )
    _assert_same_result(serial, pooled)


@pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
def test_tasks_follow_boundaries_and_root_seed_children(n_shards, tiny_dataset):
    spec = ProtocolSpec(name="L-OSUE", eps_inf=2.0, alpha=0.5)
    tasks = make_shard_tasks(spec, tiny_dataset, n_shards, rng=17)
    boundaries = shard_boundaries(tiny_dataset.n_users, n_shards)
    assert [(t.start, t.stop) for t in tasks] == [
        (int(a), int(b)) for a, b in zip(boundaries[:-1], boundaries[1:])
    ]
    assert {t.dataset_name for t in tasks} == {tiny_dataset.name}
    assert [t.seed.spawn_key for t in tasks] == [(i,) for i in range(n_shards)]
    assert all(t.seed.entropy == 17 for t in tasks)
    again = make_shard_tasks(spec, tiny_dataset, n_shards, rng=17)
    assert [t.seed.spawn_key for t in again] == [t.seed.spawn_key for t in tasks]
    assert [t.seed.entropy for t in again] == [t.seed.entropy for t in tasks]


class TestRunShardTaskRefusals:
    def _task(self, dataset, dataset_name=None):
        spec = ProtocolSpec(name="L-OSUE", eps_inf=2.0, alpha=0.5)
        task = make_shard_tasks(spec, dataset, n_shards=2, rng=1)[0]
        if dataset_name is None:
            return task
        return ShardTask(
            spec=task.spec,
            dataset_name=dataset_name,
            start=task.start,
            stop=task.stop,
            seed=task.seed,
        )

    def test_task_outside_an_initialized_pool_needs_a_dataset(self, tiny_dataset):
        with pytest.raises(ExperimentError, match="no dataset for shard task"):
            run_shard_task(self._task(tiny_dataset))

    def test_task_reaching_a_worker_with_another_dataset_fails(
        self, tiny_dataset, small_dataset
    ):
        with pytest.raises(ExperimentError, match="holding dataset 'small'"):
            run_shard_task(self._task(tiny_dataset), small_dataset)

    def test_task_without_a_dataset_name_runs_on_the_given_dataset(
        self, tiny_dataset
    ):
        named = run_shard_task(self._task(tiny_dataset), tiny_dataset)
        unnamed = run_shard_task(self._task(tiny_dataset, ""), tiny_dataset)
        _assert_same_summary(named, unnamed)


class TestShardSummaryAndSinkRefusals:
    def test_summary_needs_one_budget_entry_per_user(self):
        with pytest.raises(AggregationError, match="one entry per shard user"):
            ShardSummary(
                support_counts=np.zeros((2, 3)),
                distinct_memoized_per_user=np.ones(4, dtype=np.int64),
                n_users=5,
            )

    def test_sink_refuses_a_summary_of_another_shape(self):
        sink = ShardedSink().absorb(
            ShardSummary(np.zeros((2, 3)), np.ones(1, dtype=np.int64), 1)
        )
        with pytest.raises(AggregationError, match="does not match"):
            sink.absorb(ShardSummary(np.zeros((2, 4)), np.ones(1, dtype=np.int64), 1))
        assert sink.n_users == 1

    def test_empty_sink_has_no_counts_and_no_estimates(self, tiny_dataset):
        sink = ShardedSink()
        with pytest.raises(AggregationError, match="no shards"):
            sink.support_counts
        protocol = build_protocol(
            ProtocolSpec(name="L-OSUE", k=tiny_dataset.k, eps_inf=2.0, alpha=0.5)
        )
        with pytest.raises(AggregationError, match="empty population"):
            sink.estimates(protocol)
        assert sink.distinct_memoized_per_user.shape == (0,)

    def test_merging_an_empty_sink_changes_nothing(self):
        sink = ShardedSink().absorb(
            ShardSummary(np.full((2, 3), 4.0), np.array([1, 2], dtype=np.int64), 2)
        )
        for merged in (sink.merge(ShardedSink()), ShardedSink().merge(sink)):
            assert np.array_equal(merged.support_counts, sink.support_counts)
            assert np.array_equal(
                merged.distinct_memoized_per_user, sink.distinct_memoized_per_user
            )
            assert merged.n_users == 2
