"""dBitFlipPM engine: bit-identity anchors and the incremental round path.

The engine reads keys from a per-user bucket table, stores memo rows in
bucket coordinates and folds only users whose key changed.  That must leave
the output bit-identical to the straightforward round: every user's key from
an ``(n_users, d)`` compare against its sampled buckets, and a ``bincount``
of every user's memoized bits into its sampled buckets.  The anchors below are
sha256 digests of ``simulate_protocol(...).estimates`` computed with that
straightforward round; the structural test replays it user by user.
"""

import hashlib

import numpy as np
import pytest

from repro.datasets.base import LongitudinalDataset
from repro.exceptions import ParameterError
from repro.longitudinal import DBitFlipPM
from repro.simulation import DBitFlipEngine, engines, simulate_protocol
from repro.simulation.state import PackedBitMemo, SparsePackedBitMemo

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

#: sha256 of the float64 estimates, keyed by (d, churn).  Dense and sparse
#: memo layouts resolve bit-identically, so they share one digest.
ESTIMATE_SHA256 = {
    (1, "0"): "6a46d56dc1672853fe811b3a0553fbf00aceb3b777090374c4c5c52b662b069d",
    (1, "25"): "a1fed6c35f572c1d6e8c11765a7d0698c5378c1deb1b5717086189088802f473",
    (1, "55"): "65309c1609cc238af41e21d960ca6ff7d122a8bde2f947a6668a0ea80319c1c5",
    (1, "100"): "0fc837cef25d4e478091f53542907d1346e2de4a1a0af4486abf7240b467cd48",
    (3, "0"): "480d92cb7a631d53659eca95b36ba73d5f2e747472d2914bf0df638952db435e",
    (3, "25"): "577c2e097171f7f60cf33b5f5c038d701771850b5eb6a3f6a66127bfc4782bc5",
    (3, "55"): "2693130811055c4473f1579e570e52b9ef8a22b297f9a5ac72f9aba6aabb1de9",
    (3, "100"): "caa51dea34db0c74bb7a299e98755bdb5c559c20419f91173432b11cd94ea07d",
    (B, "0"): "09a009250f7e5f366fb7e379568599dbfe8bbeb52bc09124e9c978a576d16371",
    (B, "25"): "45a3df1bcfd72e6f88466e9e8bffdf3b8f58402ef3d7281ef2b599543e223935",
    (B, "55"): "2ec400e872f3981dd6741e159e6991457052802ce2a3a0a0677eb636f23093b5",
    (B, "100"): "2b79194a172a4694398306a5a890686a6051c547134001ca77adc1dccd051d9a",
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
    """Rows are zero outside the sample; ``memoized_bits`` is the drawn d bits."""
    drawn = []

    def recording_kernel(keys, *args):
        bits = fresh_bits_kernel(keys, *args)
        drawn.append(bits.copy())
        return bits

    fresh_bits_kernel = engines.dbitflip_fresh_bits_kernel
    monkeypatch.setattr(engines, "dbitflip_fresh_bits_kernel", recording_kernel)
    protocol = DBitFlipPM(K, 2.0, b=B, d=d)
    memo = memo_class(N_USERS, d + 1, B)
    engine = DBitFlipEngine(protocol, N_USERS, rng=6, memo=memo)
    generator = np.random.default_rng(8)
    expected = {}
    for values_t in churn_dataset(CHURN_SCHEDULES["25"]).iter_rounds():
        keys = compare_keys(engine.sampled_buckets, protocol.bucket_of(values_t), d)
        fresh_users = [u for u in range(N_USERS) if (u, keys[u]) not in expected]
        n_draws = len(drawn)
        engine.run_round(values_t, generator)
        assert len(drawn) == n_draws + bool(fresh_users)
        for user, bits in zip(fresh_users, drawn[-1] if fresh_users else ()):
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
