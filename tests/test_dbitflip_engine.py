"""dBitFlipPM engine: stream anchors, the incremental round path and the
MSE gate.

The engine reads keys from a per-user bucket table (with ``d = b`` the key
is the bucket itself), stores memo rows in bucket coordinates and folds
only users whose key changed.  That must leave the output bit-identical to
the straightforward round: every user's key from an ``(n_users, d)``
compare against its sampled buckets, and a ``bincount`` of every user's
memoized bits into its sampled buckets.  The structural test
replays that round user by user; the anchors below are sha256 digests of
``simulate_protocol(...).estimates`` under stream contract 3.  The MSE_avg/V*
gate licenses that stream: it holds on every contract.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from repro.datasets.base import LongitudinalDataset
from repro.exceptions import ParameterError
from repro.experiments.empirical import paper_protocol_specs
from repro.longitudinal import DBitFlipPM
from repro.registry import build_protocol
from repro.simulation import DBitFlipEngine, engines, simulate_protocol
from repro.simulation.kernels import _BUCKET_DRAW_BLOCK_BYTES
from repro.simulation.state import PackedBitMemo, SparsePackedBitMemo
from test_statistical_properties import _Z_ALPHA_1E4
from test_ue_once_visited import GATE_DATASETS

K, B, N_USERS, N_ROUNDS = 32, 16, 300, 12

#: Share of users whose *bucket* changes in each round, cycled over rounds.
#: "55" alternates around the fold cache's 1/2 – 5/8 hysteresis band: it
#: enters the delta path at 45 % and must stay on it at 55 % and 60 %.
CHURN_SCHEDULES = {
    "0": (0.0,),
    "25": (0.25,),
    "55": (0.45, 0.55, 0.6),
    "100": (1.0,),
}

#: sha256 of the float64 estimates under stream contract 3, keyed by
#: (d, churn).  Dense and sparse memo layouts resolve bit-identically, so
#: they share one digest.
ESTIMATE_SHA256 = {
    (1, "0"): "7bdf38e9c360ad66bcf9baf977f83ad27bddbc60b132cf8de41a7eb5ead864ff",
    (1, "25"): "468545938e9035b2130874a1da196bb3909a9d16d9ae5c88f9dd48342cf989ff",
    (1, "55"): "dd49dbab5d0759df4bab96eef3c40657bf674d88f4c021531c98fb9cae94eb80",
    (1, "100"): "a5591998c016065889bff74f5cce88ce49a769591db611b842010e3b4092ae60",
    (3, "0"): "2f99b0950bf3118aefac2816a737837fd85382ea59136e290a2328b47d1e5955",
    (3, "25"): "e147bcde4b6703ca03fe73a5a345bc32244194dfcf14b4f18d4cf64d641652bf",
    (3, "55"): "8d511e2d977c42ae883fe645bf7bd6f286e0677354816e9e5470b954303da9d7",
    (3, "100"): "53d3bd75fe562f483028f50d9fe4879cd3eba653bc8ed4453b80646cc5aa0c14",
    (B, "0"): "fbf997aad956c11866262410a4834797d4b84e640d8fb18fd1de634872aa5364",
    (B, "25"): "1cf7c16086e1b10d1d836d5872aecb091fd448fe0ef39df5ee3f5c18d2189d35",
    (B, "55"): "8f007d71c95e160d133ddf448187b1d69914bc11778337827247b95e0d674db7",
    (B, "100"): "9418471b0afc2a20ba71007c07d5a6bc3f42199cc62d996a0e2c4817d21099fe",
}


def churn_dataset(schedule, seed=0):
    """Values whose bucket changes for exactly the scheduled share of users.

    Every user also redraws its value inside its bucket each round, so the
    engine sees value changes that leave the bucket (and the key) alone.
    """
    rng = np.random.default_rng(seed)
    width = K // B
    values = np.empty((N_USERS, N_ROUNDS), dtype=np.int64)
    values[:, 0] = rng.integers(0, K, size=N_USERS)
    for t in range(1, N_ROUNDS):
        fraction = schedule[(t - 1) % len(schedule)]
        movers = rng.permutation(N_USERS)[: round(fraction * N_USERS)]
        buckets = values[:, t - 1] // width
        buckets[movers] = (buckets[movers] + rng.integers(1, B, size=movers.size)) % B
        values[:, t] = buckets * width + rng.integers(0, width, size=N_USERS)
    return LongitudinalDataset(name="churn", values=values, k=K)


def compare_keys(sampled_buckets, buckets, d):
    """Reference key lookup: position of the bucket among the samples, or d."""
    matches = sampled_buckets == buckets[:, None]
    keys = np.full(buckets.size, d, dtype=np.int64)
    users, positions = np.nonzero(matches)
    keys[users] = positions
    return keys


def estimates_digest(d, churn, memo_class):
    result = simulate_protocol(
        DBitFlipPM(K, 2.0, b=B, d=d),
        churn_dataset(CHURN_SCHEDULES[churn]),
        rng=7,
        engine_options={"memo": memo_class(N_USERS, d + 1, B)},
    )
    return hashlib.sha256(np.ascontiguousarray(result.estimates).tobytes()).hexdigest()


@pytest.mark.parametrize(
    "memo_class", [PackedBitMemo, SparsePackedBitMemo], ids=["dense", "sparse"]
)
@pytest.mark.parametrize("churn", list(CHURN_SCHEDULES))
@pytest.mark.parametrize("d", [1, 3, B])
def test_estimates_match_anchor(d, churn, memo_class):
    assert estimates_digest(d, churn, memo_class) == ESTIMATE_SHA256[(d, churn)]


@pytest.mark.parametrize("churn", list(CHURN_SCHEDULES))
@pytest.mark.parametrize("d", [1, 3, B])
def test_round_counts_equal_per_user_fold(d, churn):
    protocol = DBitFlipPM(K, 2.0, b=B, d=d)
    engine = DBitFlipEngine(protocol, N_USERS, rng=3, record_key_history=True)
    generator = np.random.default_rng(4)
    for values_t in churn_dataset(CHURN_SCHEDULES[churn]).iter_rounds():
        counts = engine.run_round(values_t, generator)
        keys = compare_keys(engine.sampled_buckets, protocol.bucket_of(values_t), d)
        assert np.array_equal(engine.key_history[-1], keys)
        expected = np.zeros(B)
        for user, key in enumerate(keys):
            expected += np.bincount(
                engine.sampled_buckets[user],
                weights=engine.memoized_bits(user, int(key)),
                minlength=B,
            )
        assert counts.dtype == np.float64
        assert np.array_equal(counts, expected)


def test_all_bucket_keys_are_the_buckets():
    """With ``d = b`` every user samples every bucket, and a key is the bucket."""
    protocol = DBitFlipPM(K, 2.0, b=B, d=B)
    engine = DBitFlipEngine(protocol, N_USERS, rng=3, record_key_history=True)
    for values_t in churn_dataset(CHURN_SCHEDULES["55"]).iter_rounds():
        engine.run_round(values_t)
        assert np.array_equal(engine.key_history[-1], protocol.bucket_of(values_t))


@pytest.mark.parametrize("d", [1, 360])
def test_set_up_peak_is_below_ten_bytes_per_user_bucket(d):
    """Set-up holds one float64 uniform per (user, bucket) and no sort of it."""
    n_users, b = 4000, 360
    protocol = DBitFlipPM(360, 2.0, b=b, d=d)
    tracemalloc.start()
    try:
        DBitFlipEngine(protocol, n_users, rng=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * n_users * b, peak / (n_users * b)


@pytest.mark.parametrize("d", [1, 360])
def test_set_up_peak_is_below_one_byte_per_user_bucket_plus_one_block(d):
    """The uniforms are drawn one row block at a time: what stays is the
    one-byte key table of ``d < b``, never 8 B per (user, bucket)."""
    n_users, b = 4000, 360
    protocol = DBitFlipPM(360, 2.0, b=b, d=d)
    tracemalloc.start()
    try:
        DBitFlipEngine(protocol, n_users, rng=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_users * b + _BUCKET_DRAW_BLOCK_BYTES, peak / (n_users * b)


@pytest.mark.parametrize("d", [1, B])
def test_returned_counts_not_changed_by_later_rounds(d):
    engine = DBitFlipEngine(DBitFlipPM(K, 2.0, b=B, d=d), N_USERS, rng=5)
    returned = []
    for values_t in churn_dataset(CHURN_SCHEDULES["25"]).iter_rounds():
        counts = engine.run_round(values_t)
        returned.append((counts, counts.copy()))
    for counts, snapshot in returned:
        assert np.array_equal(counts, snapshot)


@pytest.mark.parametrize(
    "memo_class", [PackedBitMemo, SparsePackedBitMemo], ids=["dense", "sparse"]
)
@pytest.mark.parametrize("d", [1, 3, B])
def test_memo_rows_live_in_bucket_coordinates(d, memo_class, monkeypatch):
    """Rows are zero outside the sample; ``memoized_bits`` is the drawn d bits.

    With ``d < b`` the engine draws sample-order bits through
    ``dbitflip_fresh_bits_kernel`` and scatters them.  With ``d == b`` it
    draws the bucket-order row through ``ue_fresh_rows_kernel``, the
    user's bucket as the true column.
    """
    drawn = []

    def recording_kernel(keys, *args):
        bits = fresh_kernel(keys, *args)
        drawn.append((keys.copy(), bits.copy()))
        return bits

    kernel_name = "ue_fresh_rows_kernel" if d == B else "dbitflip_fresh_bits_kernel"
    fresh_kernel = getattr(engines, kernel_name)
    monkeypatch.setattr(engines, kernel_name, recording_kernel)
    protocol = DBitFlipPM(K, 2.0, b=B, d=d)
    memo = memo_class(N_USERS, d + 1, B)
    engine = DBitFlipEngine(protocol, N_USERS, rng=6, memo=memo)
    generator = np.random.default_rng(8)
    expected = {}
    for values_t in churn_dataset(CHURN_SCHEDULES["25"]).iter_rounds():
        buckets = protocol.bucket_of(values_t)
        keys = compare_keys(engine.sampled_buckets, buckets, d)
        fresh_users = [u for u in range(N_USERS) if (u, keys[u]) not in expected]
        n_draws = len(drawn)
        engine.run_round(values_t, generator)
        assert len(drawn) == n_draws + bool(fresh_users)
        if not fresh_users:
            continue
        drawn_keys, drawn_bits = drawn[-1]
        assert np.array_equal(drawn_keys, (buckets if d == B else keys)[fresh_users])
        for user, bits in zip(fresh_users, drawn_bits):
            if d == B:
                bits = bits[engine.sampled_buckets[user]]
            expected[(user, int(keys[user]))] = bits

    outside = np.ones((N_USERS, B), dtype=bool)
    outside[np.arange(N_USERS)[:, None], engine.sampled_buckets] = False
    for user in range(N_USERS):
        for key in range(d + 1):
            row = memo.get_row(user, key)
            assert (row is None) == ((user, key) not in expected)
            if row is not None:
                assert not row[outside[user]].any()
                assert np.array_equal(engine.memoized_bits(user, key), expected[(user, key)])


def test_memo_sized_for_sample_order_rows_is_widened():
    """A fresh ``(d + 1, d)`` table is widened to ``b`` bits; a used one is refused."""
    dataset = churn_dataset(CHURN_SCHEDULES["25"])
    protocol = DBitFlipPM(K, 2.0, b=B, d=1)
    memo = PackedBitMemo(N_USERS, 2, 1)
    result = simulate_protocol(protocol, dataset, rng=7, engine_options={"memo": memo})
    assert memo.n_bits == B
    assert hashlib.sha256(result.estimates.tobytes()).hexdigest() == ESTIMATE_SHA256[(1, "25")]
    used = PackedBitMemo(N_USERS, 2, 1)
    used.ensure_rows(np.zeros(N_USERS, dtype=np.int64), lambda users, keys: np.ones((users.size, 1)))
    with pytest.raises(ParameterError):
        DBitFlipEngine(protocol, N_USERS, rng=0, memo=used)


N_SEEDS = 16


@pytest.mark.parametrize("dataset_name", list(GATE_DATASETS))
@pytest.mark.parametrize("label", ["1BitFlipPM", "bBitFlipPM"])
def test_mse_over_v_star_is_bounded_serial(label, dataset_name):
    """The R-seed mean of MSE_avg/V* stays at 1.

    V* is :meth:`DBitFlipPM.exact_variance` averaged over the true bucket
    frequencies.  Memoization correlates rounds, so the spread is taken
    across seeds: the bound is ``z`` seed-standard-errors plus 10%.
    """
    dataset = GATE_DATASETS[dataset_name]()
    spec = paper_protocol_specs()[label].at(k=dataset.k, eps_inf=2.0, alpha=0.5)
    protocol = build_protocol(spec)

    def ratio(result):
        v_star = np.mean([
            protocol.exact_variance(dataset.n_users, float(f))
            for f in result.true_frequencies.ravel()
        ])
        return result.mse_avg / v_star

    ratios = np.array([ratio(simulate_protocol(protocol, dataset, rng=seed))
                       for seed in range(N_SEEDS)])
    spread = math.sqrt(ratios.var(ddof=1) / ratios.size)
    assert abs(ratios.mean() - 1) < 0.1 + _Z_ALPHA_1E4 * spread, ratios
