"""Execution-tier tests: batched windows and kernel backends.

Guards the two layers added by the execution tier:

* **Batched stepping** — :meth:`run_rounds` collapses a steady window into
  one kernel call, bit-identical to sequential :meth:`run_round` stepping
  (same counts AND the same draw budget: the CountingGenerator tests pin
  that an R-round window consumes exactly R rounds' worth of variates, at
  two population sizes), and the runner's window driver splits windows at
  every mid-window value change.
* **Kernel backends** — the dispatch resolves a requested backend and
  rejects an unknown one; the compiled backend's exact equality with the
  numpy oracle is ``tests/test_kernels.py::TestNativeOracle``.
"""

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.longitudinal import DBitFlipPM, LGRR, LOSUE, OLOLOHA
from repro.simulation import (
    UnaryChainEngine,
    engine_for,
    round_windows,
    simulate_protocol,
)
from repro.simulation.kernels_backend import (
    BACKEND_ENV_VAR,
    NUMPY_BACKEND,
    available_backend_names,
    resolve_backend,
)

K = 16

ENGINE_FACTORIES = {
    "L-GRR": lambda k: LGRR(k, 3.0, 1.5),
    "L-OSUE": lambda k: LOSUE(k, 3.0, 1.5),
    "OLOLOHA": lambda k: OLOLOHA(k, 3.0, 1.5),
    "dBitFlipPM": lambda k: DBitFlipPM(k, 3.0, d=4),
}

PROTOCOL_PARAMS = pytest.mark.parametrize(
    "protocol_factory", list(ENGINE_FACTORIES.values()), ids=list(ENGINE_FACTORIES)
)


class _CountingGenerator(np.random.Generator):
    """A Generator that tallies how many random variates were drawn."""

    def __init__(self, seed=0):
        super().__init__(np.random.PCG64(seed))
        self.variates = 0

    def _count(self, out):
        self.variates += int(np.size(out))
        return out

    def random(self, *args, **kwargs):
        return self._count(super().random(*args, **kwargs))

    def integers(self, *args, **kwargs):
        return self._count(super().integers(*args, **kwargs))

    def binomial(self, *args, **kwargs):
        return self._count(super().binomial(*args, **kwargs))

    def multinomial(self, *args, **kwargs):
        return self._count(super().multinomial(*args, **kwargs))


class TestBatchedRunRounds:
    """run_rounds == R sequential run_round calls, draw for draw."""

    @PROTOCOL_PARAMS
    def test_bit_identical_to_sequential(self, protocol_factory):
        n_users, n_rounds = 90, 7
        values = np.random.default_rng(1).integers(0, K, size=n_users)
        batched_engine = engine_for(protocol_factory(K), n_users, rng=5)
        sequential_engine = engine_for(protocol_factory(K), n_users, rng=5)

        batched = batched_engine.run_rounds(values, n_rounds, np.random.default_rng(6))
        generator = np.random.default_rng(6)
        sequential = np.stack(
            [sequential_engine.run_round(values, generator) for _ in range(n_rounds)]
        )
        assert np.array_equal(batched, sequential)

    @PROTOCOL_PARAMS
    def test_stream_stays_aligned_after_window(self, protocol_factory):
        """After a batched window both engines continue on the same stream."""
        n_users = 60
        rng = np.random.default_rng(2)
        first = rng.integers(0, K, size=n_users)
        second = rng.integers(0, K, size=n_users)
        batched_engine = engine_for(protocol_factory(K), n_users, rng=9)
        sequential_engine = engine_for(protocol_factory(K), n_users, rng=9)

        batched_generator = np.random.default_rng(10)
        sequential_generator = np.random.default_rng(10)
        batched_engine.run_rounds(first, 4, batched_generator)
        for _ in range(4):
            sequential_engine.run_round(first, sequential_generator)
        assert np.array_equal(
            batched_engine.run_round(second, batched_generator),
            sequential_engine.run_round(second, sequential_generator),
        )

    @PROTOCOL_PARAMS
    def test_invalid_round_count_rejected(self, protocol_factory):
        engine = engine_for(protocol_factory(K), 10, rng=0)
        values = np.zeros(10, dtype=np.int64)
        with pytest.raises(ParameterError):
            engine.run_rounds(values, 0, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "protocol_factory",
        [ENGINE_FACTORIES["L-GRR"], ENGINE_FACTORIES["L-OSUE"], ENGINE_FACTORIES["OLOLOHA"]],
        ids=["L-GRR", "L-OSUE", "OLOLOHA"],
    )
    @pytest.mark.parametrize("n_users", [80, 800])
    def test_window_draw_budget_is_exactly_r_rounds(self, protocol_factory, n_users):
        """An R-round window consumes exactly R rounds' worth of variates —
        no extra draws, no per-user draws — at two population sizes."""
        values = np.random.default_rng(3).integers(0, K, size=n_users)

        warm = engine_for(protocol_factory(K), n_users, rng=0)
        warm.run_round(values)  # memoize every (user, current key) pair
        per_round = _CountingGenerator(4)
        warm.run_round(values, per_round)

        batched = engine_for(protocol_factory(K), n_users, rng=0)
        batched.run_round(values)
        counter = _CountingGenerator(4)
        n_rounds = 6
        batched.run_rounds(values, n_rounds, counter)
        assert counter.variates == n_rounds * per_round.variates
        assert per_round.variates <= 4 * K  # O(k), nothing per-user

    def test_dbitflip_window_draws_nothing_after_first_round(self):
        """dBitFlipPM has no instantaneous randomness: a warmed batched
        window consumes zero variates."""
        n_users = 50
        values = np.random.default_rng(5).integers(0, K, size=n_users)
        engine = engine_for(DBitFlipPM(K, 3.0, d=4), n_users, rng=0)
        engine.run_round(values)
        counter = _CountingGenerator(6)
        counts = engine.run_rounds(values, 5, counter)
        assert counter.variates == 0
        assert (counts == counts[0]).all()


class TestRoundWindows:
    def test_single_round_is_one_window(self):
        values = np.array([[3], [1]])
        assert round_windows(values) == [(0, 1)]

    def test_steady_rounds_collapse_to_one_window(self):
        values = np.tile(np.array([[2], [5], [1]]), (1, 6))
        assert round_windows(values) == [(0, 6)]

    def test_mid_window_change_splits_window(self):
        """Regression: one user changing at round 3 must split [0, 6) into
        [0, 3) and [3, 6) — the change may not be absorbed into a window."""
        values = np.tile(np.array([[2], [5], [1]]), (1, 6))
        values[1, 3:] = 7
        assert round_windows(values) == [(0, 3), (3, 6)]

    def test_every_round_changing_yields_singleton_windows(self):
        values = np.arange(8)[None, :] % 5
        assert round_windows(values) == [(t, t + 1) for t in range(8)]

    @PROTOCOL_PARAMS
    def test_windowed_runner_matches_per_round_driving(
        self, protocol_factory, tiny_dataset
    ):
        """simulate_protocol (window-batched) == hand-driven per-round loop."""
        from repro._validation import as_rng
        from repro.simulation.sinks import SupportCountSink

        protocol = protocol_factory(tiny_dataset.k)
        result = simulate_protocol(protocol, tiny_dataset, rng=123)

        # Mirror simulate_protocol's stream exactly, but step one round at a
        # time instead of through the window driver.  The UE engine gets the
        # driver's once-visited mask, one round column at a time.
        generator = as_rng(123)
        engine = engine_for(protocol, tiny_dataset.n_users, generator)
        sink = SupportCountSink(
            tiny_dataset.n_rounds,
            engine.protocol.estimation_domain_size,
            tiny_dataset.n_users,
        )
        once = tiny_dataset.once_visited_mask()
        for t, values_t in enumerate(tiny_dataset.iter_rounds()):
            options = {"once": once[:, t]} if isinstance(engine, UnaryChainEngine) else {}
            sink.add_round(t, engine.run_round(values_t, generator, **options))
        assert np.array_equal(result.estimates, sink.estimates(engine.protocol))

    def test_window_driver_adds_each_round_once_in_order(self, tiny_dataset):
        from repro._validation import as_rng
        from repro.simulation.runner import _drive_windows

        class RecordingSink:
            def __init__(self):
                self.rounds = []

            def add_round(self, t, counts):
                self.rounds.append(t)

        # Windows [0, 3) and [3, 5): multi-round windows are unrolled.
        values = tiny_dataset.values[:, [0, 0, 0, 1, 1]]
        assert round_windows(values) == [(0, 3), (3, 5)]
        generator = as_rng(5)
        engine = engine_for(LGRR(tiny_dataset.k, 2.0, 1.0), len(values), generator)
        sink = RecordingSink()
        _drive_windows(engine, values, sink, generator)
        assert sink.rounds == [0, 1, 2, 3, 4]

    def test_runner_loads_nothing_from_the_service_layer(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        ))
        probe = (
            "import sys, repro.simulation.runner; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.service')))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            env=env, check=True, timeout=120,
        )
        assert completed.stdout.strip() == "[]"


class TestEngineOptionValidation:
    """Layout overrides on engines that ignore them must fail loudly."""

    def test_memo_layout_rejected_for_grr(self):
        with pytest.raises(ParameterError, match="memo_layout"):
            engine_for(LGRR(8, 2.0, 1.0), 10, rng=0, memo_layout="sparse")

    def test_support_layout_rejected_for_unary(self):
        with pytest.raises(ParameterError, match="support_layout"):
            engine_for(LOSUE(8, 2.0, 1.0), 10, rng=0, support_layout="packed")

    def test_unknown_option_rejected_for_loloha(self):
        with pytest.raises(ParameterError, match="record_key_history"):
            engine_for(OLOLOHA(8, 2.0, 1.0), 10, rng=0, record_key_history=True)

    def test_error_names_engine_and_valid_options(self):
        with pytest.raises(ParameterError, match="valid options"):
            engine_for(LGRR(8, 2.0, 1.0), 10, rng=0, support_layout="packed")

    @pytest.mark.parametrize(
        "protocol",
        [LOSUE(8, 2.0, 1.0), DBitFlipPM(8, 2.0, b=4, d=2)],
        ids=["unary", "dbitflip"],
    )
    def test_memo_layout_option_is_gone(self, protocol):
        """A layout is forced through ``memo=make_packed_bit_memo(...)``."""
        with pytest.raises(
            ParameterError, match=r"does not accept engine option\(s\) 'memo_layout'"
        ):
            engine_for(protocol, 10, rng=0, memo_layout="sparse")


class TestKernelBackends:
    def test_numpy_backend_always_available(self):
        assert "numpy" in available_backend_names()
        assert resolve_backend("numpy") is NUMPY_BACKEND

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend(None).name == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError, match="backend"):
            resolve_backend("fortran")

    def test_engine_accepts_backend_override(self):
        engine = engine_for(LGRR(8, 2.0, 1.0), 10, rng=0, backend="numpy")
        assert engine.backend_name == "numpy"
