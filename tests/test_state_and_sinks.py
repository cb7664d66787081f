"""Tests for the dense memoization state and the aggregation sinks."""

import numpy as np
import pytest

from repro.exceptions import AggregationError, ParameterError
from repro.longitudinal import DBitFlipPM, LGRR, LSUE, OLOLOHA
from repro.simulation import simulate_protocol, simulate_protocol_sharded
from repro.simulation.sinks import (
    ShardSummary,
    ShardedSink,
    SupportCountSink,
    estimate_support_counts,
)
from repro.simulation.state import (
    DenseSymbolMemo,
    PackedBitMemo,
    SparsePackedBitMemo,
    make_packed_bit_memo,
)


class TestDenseSymbolMemo:
    def test_lazy_allocation_and_zero_distinct(self):
        memo = DenseSymbolMemo(5, 8)
        assert list(memo.distinct_per_user()) == [0, 0, 0, 0, 0]

    def test_fresh_called_only_for_missing(self):
        memo = DenseSymbolMemo(4, 6)
        calls = []

        def fresh(users, keys):
            calls.append((users.copy(), keys.copy()))
            return keys * 10

        keys = np.asarray([0, 1, 2, 3])
        first = memo.resolve(keys, fresh)
        assert np.array_equal(first, [0, 10, 20, 30])
        assert len(calls) == 1

        # Same keys again: everything memoized, fresh must not run.
        second = memo.resolve(keys, lambda u, k: pytest.fail("fresh re-invoked"))
        assert np.array_equal(second, first)

    def test_partial_miss_batches_only_missing_users(self):
        memo = DenseSymbolMemo(3, 4)
        memo.resolve(np.asarray([0, 0, 0]), lambda u, k: np.zeros(u.size, dtype=int))
        seen = {}

        def fresh(users, keys):
            seen["users"] = users.copy()
            return keys

        memo.resolve(np.asarray([0, 1, 1]), fresh)
        assert np.array_equal(seen["users"], [1, 2])
        assert list(memo.distinct_per_user()) == [1, 2, 2]


class TestPackedBitMemo:
    def test_lazy_allocation(self):
        memo = PackedBitMemo(10, 4, 12)
        assert memo.nbytes_allocated == 0
        assert memo.get_row(0, 0) is None
        assert list(memo.distinct_per_user()) == [0] * 10

    def test_rows_survive_pack_unpack_roundtrip(self):
        rng = np.random.default_rng(0)
        memo = PackedBitMemo(20, 3, 11)
        rows = {}

        def fresh(users, keys):
            fresh_rows = (rng.random((users.size, 11)) < 0.5).astype(np.uint8)
            for u, k, row in zip(users, keys, fresh_rows):
                rows[(int(u), int(k))] = row
            return fresh_rows

        keys = rng.integers(0, 3, size=20)
        resolved = memo.resolve(keys, fresh)
        for user in range(20):
            assert np.array_equal(resolved[user], rows[(user, int(keys[user]))])
            assert np.array_equal(memo.get_row(user, int(keys[user])), rows[(user, int(keys[user]))])

        # Second resolve with the same keys returns the stored rows unchanged.
        again = memo.resolve(keys, lambda u, k: pytest.fail("fresh re-invoked"))
        assert np.array_equal(again, resolved)

    def test_distinct_counts_per_user(self):
        memo = PackedBitMemo(2, 4, 5)
        make = lambda users, keys: np.ones((users.size, 5), dtype=np.uint8)
        memo.resolve(np.asarray([0, 1]), make)
        memo.resolve(np.asarray([0, 2]), make)
        memo.resolve(np.asarray([3, 2]), make)
        # user 0 memoized keys {0, 3}; user 1 memoized keys {1, 2}
        assert list(memo.distinct_per_user()) == [2, 2]


def _random_fresh(seed):
    """A deterministic fresh-row callback shared by layout-equivalence tests."""
    rng = np.random.default_rng(seed)

    def fresh(users, keys):
        return (rng.random((users.size, 13)) < 0.5).astype(np.uint8)

    return fresh


class TestSparsePackedBitMemo:
    def test_lazy_allocation(self):
        memo = SparsePackedBitMemo(10, 4, 12)
        assert memo.nbytes_allocated == 0
        assert memo.get_row(0, 0) is None
        assert list(memo.distinct_per_user()) == [0] * 10

    def test_pool_grows_geometrically_and_preserves_rows(self):
        n_users, n_keys = 6, 50
        memo = SparsePackedBitMemo(n_users, n_keys, 13)
        fresh = _random_fresh(7)
        rng = np.random.default_rng(8)
        resolved = {}
        for _ in range(40):
            keys = rng.integers(0, n_keys, size=n_users)
            rows = memo.resolve(keys, fresh)
            for user in range(n_users):
                pair = (user, int(keys[user]))
                if pair in resolved:
                    assert np.array_equal(rows[user], resolved[pair])
                else:
                    resolved[pair] = rows[user].copy()
        assert memo.n_rows_memoized == len(resolved)
        for (user, key), row in resolved.items():
            assert np.array_equal(memo.get_row(user, key), row)

    @pytest.mark.parametrize(
        "memo_class", [PackedBitMemo, SparsePackedBitMemo], ids=["dense", "sparse"]
    )
    def test_column_sums_equals_unpacked_ground_truth(self, memo_class):
        memo = memo_class(30, 5, 13)
        shadow = memo_class(30, 5, 13)
        keys = np.random.default_rng(3).integers(0, 5, size=30)
        sums = memo.column_sums(keys, _random_fresh(11))
        unpacked = shadow.resolve(keys, _random_fresh(11))
        assert np.array_equal(sums, unpacked.sum(axis=0, dtype=np.int64))

    @pytest.mark.parametrize(
        "memo_class", [PackedBitMemo, SparsePackedBitMemo], ids=["dense", "sparse"]
    )
    def test_reading_a_never_memoized_pair_raises(self, memo_class):
        """Regression: the sparse layout read the last pool row (its lookup
        slot is -1) and the dense one zeros for a pair never memoized."""
        memo = memo_class(4, 3, 8)
        with pytest.raises(ParameterError, match="never memoized"):
            memo.packed_rows(np.array([0]), np.array([2]))
        memo.ensure_rows(np.array([0, 1, 2, 0]), lambda users, keys: np.ones((users.size, 8)))
        assert memo.packed_rows(np.array([2]), np.array([2])).tolist() == [[255]]
        with pytest.raises(ParameterError, match="user 0, key 2"):
            memo.packed_rows(np.array([2, 0]), np.array([2, 2]))

    @pytest.mark.parametrize(
        "memo_class", [PackedBitMemo, SparsePackedBitMemo], ids=["dense", "sparse"]
    )
    def test_ensure_rows_over_a_user_subset(self, memo_class):
        memo = memo_class(5, 4, 13)
        calls = []

        def fresh(users, keys):
            calls.append((users.tolist(), keys.tolist()))
            return _random_fresh(12)(users, keys)

        users = np.array([1, 3, 4])
        memo.ensure_rows(np.array([2, 0, 2]), fresh, users=users)
        memo.ensure_rows(np.array([2, 1, 2]), fresh, users=users)
        assert calls == [([1, 3, 4], [2, 0, 2]), ([3], [1])]
        assert memo.distinct_per_user().tolist() == [0, 1, 0, 2, 1]
        with pytest.raises(ParameterError):
            memo.packed_rows(np.array([0]), np.array([2]))

    def test_dense_and_sparse_are_bit_identical(self):
        """Same fresh sequence => identical rows, sums and accounting."""
        dense = PackedBitMemo(25, 6, 13)
        sparse = SparsePackedBitMemo(25, 6, 13)
        dense_fresh, sparse_fresh = _random_fresh(21), _random_fresh(21)
        rng = np.random.default_rng(22)
        for _ in range(12):
            keys = rng.integers(0, 6, size=25)
            assert np.array_equal(
                dense.resolve(keys, dense_fresh), sparse.resolve(keys, sparse_fresh)
            )
            assert np.array_equal(
                dense.column_sums(keys, _boom), sparse.column_sums(keys, _boom)
            )
        assert np.array_equal(dense.distinct_per_user(), sparse.distinct_per_user())
        for user in range(25):
            for key in range(6):
                dense_row, sparse_row = dense.get_row(user, key), sparse.get_row(user, key)
                if dense_row is None:
                    assert sparse_row is None
                else:
                    assert np.array_equal(dense_row, sparse_row)


    def test_pool_growth_across_geometric_boundary_preserves_rows(self):
        """Crossing the pool's doubling boundary must not corrupt or reorder
        the rows appended before the reallocation."""
        n_users, n_keys = 4, 32
        memo = SparsePackedBitMemo(n_users, n_keys, 13)
        fresh = _random_fresh(31)
        snapshots = {}
        # Pool capacity starts at n_users (4); nine distinct keys per user
        # forces 36 rows through the 4 -> 8 -> 16 -> 32 -> 64 reallocations.
        for key in range(9):
            keys = np.full(n_users, key)
            rows = memo.resolve(keys, fresh)
            for user in range(n_users):
                snapshots[(user, key)] = rows[user].copy()
        assert memo.n_rows_memoized == 36
        for (user, key), row in snapshots.items():
            assert np.array_equal(memo.get_row(user, key), row)

    def test_single_user_population(self):
        """n_users=1: the hashed index, pool and per-user accounting all
        work at the degenerate population size."""
        memo = SparsePackedBitMemo(1, 8, 13)
        fresh = _random_fresh(32)
        first = memo.resolve(np.array([3]), fresh).copy()
        again = memo.resolve(np.array([3]), _boom)
        assert np.array_equal(first, again)
        memo.resolve(np.array([5]), fresh)
        assert list(memo.distinct_per_user()) == [2]
        assert np.array_equal(memo.column_sums(np.array([3]), _boom), first.sum(axis=0))

    def test_full_population_churn_matches_dense(self):
        """Every user changes key every round (the delta-fold's worst case):
        sparse accounting and sums stay bit-identical to the dense table."""
        n_users, n_keys = 12, 10
        dense = PackedBitMemo(n_users, n_keys, 13)
        sparse = SparsePackedBitMemo(n_users, n_keys, 13)
        dense_fresh, sparse_fresh = _random_fresh(33), _random_fresh(33)
        for shift in range(n_keys):
            keys = (np.arange(n_users) + shift) % n_keys
            assert np.array_equal(
                dense.column_sums(keys, dense_fresh),
                sparse.column_sums(keys, sparse_fresh),
            )
        assert sparse.n_rows_memoized == n_users * n_keys
        assert np.array_equal(dense.distinct_per_user(), sparse.distinct_per_user())


def _boom(users, keys):  # pragma: no cover - must never run
    raise AssertionError("fresh invoked for already-memoized pairs")


class TestMakePackedBitMemo:
    def test_small_tables_stay_dense(self):
        assert isinstance(make_packed_bit_memo(100, 16, 16), PackedBitMemo)

    def test_huge_tables_switch_to_sparse_without_allocating(self):
        # Dense would project ~53 GiB here; auto must pick sparse (and stay
        # lazy, so this test allocates nothing).
        memo = make_packed_bit_memo(100_000, 2_048, 2_048)
        assert isinstance(memo, SparsePackedBitMemo)
        assert memo.nbytes_allocated == 0

    @pytest.mark.parametrize(
        "n_users, k, memo_class",
        [
            (10_336, 1_152, SparsePackedBitMemo),  # db_mt, 1.7 GB dense
            (9_123, 956, SparsePackedBitMemo),  # db_de, 1.05 GB dense
            (10_000, 360, PackedBitMemo),  # syn, 165 MB dense
            (45_222, 96, PackedBitMemo),  # adult, 56 MB dense
        ],
        ids=["db_mt", "db_de", "syn", "adult"],
    )
    def test_paper_ue_memos_take_the_layout_measured_faster(
        self, n_users, k, memo_class
    ):
        """The cutover follows L-OSUE timings at scale 1.0: the two large
        census domains run faster sparse, syn and adult faster dense."""
        assert type(make_packed_bit_memo(n_users, k, k)) is memo_class


class TestSupportCountSink:
    def test_duplicate_round_rejected(self):
        sink = SupportCountSink(3, 4, 10)
        sink.add_round(0, np.ones(4))
        with pytest.raises(AggregationError):
            sink.add_round(0, np.ones(4))

    def test_out_of_range_round_rejected(self):
        sink = SupportCountSink(3, 4, 10)
        with pytest.raises(AggregationError):
            sink.add_round(-1, np.ones(4))
        with pytest.raises(AggregationError):
            sink.add_round(3, np.ones(4))

    def test_incomplete_matrix_rejected(self):
        sink = SupportCountSink(2, 4, 10)
        sink.add_round(1, np.ones(4))
        with pytest.raises(AggregationError):
            _ = sink.support_counts

    def test_estimates_match_direct_debias(self):
        protocol = LGRR(4, 2.0, 1.0)
        sink = SupportCountSink(2, 4, 100)
        counts = np.asarray([[30.0, 25.0, 25.0, 20.0], [40.0, 20.0, 20.0, 20.0]])
        sink.add_round(0, counts[0])
        sink.add_round(1, counts[1])
        assert np.array_equal(
            sink.estimates(protocol), estimate_support_counts(protocol, counts, 100)
        )


class TestShardedSink:
    @staticmethod
    def _summary(rng, n_rounds=3, m=5, n_users=7):
        return ShardSummary(
            support_counts=rng.integers(0, 50, size=(n_rounds, m)).astype(float),
            distinct_memoized_per_user=rng.integers(0, 4, size=n_users),
            n_users=n_users,
        )

    def test_merge_is_associative_bit_for_bit(self):
        rng = np.random.default_rng(42)
        a, b, c = (self._summary(rng) for _ in range(3))
        left = ShardedSink().absorb(a).merge(ShardedSink().absorb(b)).merge(
            ShardedSink().absorb(c)
        )
        right = ShardedSink().absorb(a).merge(
            ShardedSink().absorb(b).merge(ShardedSink().absorb(c))
        )
        flat = ShardedSink().absorb(a).absorb(b).absorb(c)
        for sink in (left, right):
            assert np.array_equal(sink.support_counts, flat.support_counts)
            assert np.array_equal(
                sink.distinct_memoized_per_user, flat.distinct_memoized_per_user
            )
            assert sink.n_users == flat.n_users == 21

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(1)
        sink = ShardedSink().absorb(self._summary(rng))
        with pytest.raises(AggregationError):
            sink.absorb(self._summary(rng, n_rounds=4))

    def test_empty_sink_rejects_estimation(self):
        with pytest.raises(AggregationError):
            ShardedSink().estimates(LGRR(4, 2.0, 1.0))

    def test_summary_validates_user_count(self):
        with pytest.raises(AggregationError):
            ShardSummary(
                support_counts=np.zeros((2, 3)),
                distinct_memoized_per_user=np.zeros(4, dtype=np.int64),
                n_users=5,
            )


class TestShardedSimulation:
    @pytest.mark.parametrize(
        "protocol_factory",
        [
            lambda k: LGRR(k, 3.0, 1.5),
            lambda k: LSUE(k, 3.0, 1.5),
            lambda k: OLOLOHA(k, 3.0, 1.5),
            lambda k: DBitFlipPM(k, 3.0, d=4),
        ],
        ids=["L-GRR", "RAPPOR", "OLOLOHA", "dBitFlipPM"],
    )
    def test_sharded_matches_unsharded_statistically(self, protocol_factory, small_dataset):
        whole = simulate_protocol(protocol_factory(small_dataset.k), small_dataset, rng=0)
        sharded = simulate_protocol_sharded(
            protocol_factory(small_dataset.k), small_dataset, n_shards=4, rng=0
        )
        assert sharded.estimates.shape == whole.estimates.shape
        assert sharded.distinct_memoized_per_user.shape == (small_dataset.n_users,)
        assert sharded.mse_avg < 8 * whole.mse_avg + 0.05
        assert whole.mse_avg < 8 * sharded.mse_avg + 0.05
        assert sharded.eps_avg == pytest.approx(whole.eps_avg, rel=0.25)
        assert sharded.extra["n_shards"] == 4

    def test_too_many_shards_rejected(self, tiny_dataset):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            simulate_protocol_sharded(
                LGRR(tiny_dataset.k, 2.0, 1.0),
                tiny_dataset,
                n_shards=tiny_dataset.n_users + 1,
                rng=0,
            )
