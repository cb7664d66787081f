"""Per-layer tracing of one simulation pass, done from outside the program.

For the duration of one traced pass the benchmark wraps the public entry
point of every layer that a simulated round crosses:

* ``engines`` -- ``engine_for`` under the name ``simulation.runner`` calls
  (engine construction) and each engine's ``run_rounds`` (one round window);
* ``state`` -- the memo table handed to ``engine_for`` as ``memo=``;
* ``kernels`` -- the fresh-row and instantaneous-draw kernels under the
  names ``simulation.engines`` calls;
* ``fold`` -- a wrapping ``KernelBackend`` handed to ``engine_for`` as
  ``backend=``;
* ``hashing`` -- the LOLOHA protocol's ``family.sample_hashed_domains``;
* ``sinks`` -- the support-count sink class ``simulation.runner`` builds;
* ``store`` -- the results store handed to ``run_sweep``.

Spans nest.  A layer's self time is its span time minus the time of the
spans it encloses, so the self times of one traced pass, with the sweep's
own residual (``sweep.overhead_s``), add up to the pass's wall time.
Nothing here touches a randomness stream: a traced pass returns the same
estimates as an untraced one, which the worker checks.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from repro.longitudinal.dbitflip import DBitFlipPM
from repro.longitudinal.l_grr import LGRR
from repro.longitudinal.l_ue import LongitudinalUnaryEncoding
from repro.longitudinal.loloha import LOLOHA
from repro.obs.metrics import default_registry
from repro.simulation import engines, runner
from repro.simulation.kernels_backend import KernelBackend, resolve_backend
from repro.simulation.sinks import SupportCountSink
from repro.simulation.state import DenseSymbolMemo, make_packed_bit_memo

FAMILIES = ("ue", "grr", "loloha", "dbitflip")

#: Per-family layer metrics, each reported as ``<name>.<family>`` for the
#: families whose engine has that layer: dBitFlipPM has no instantaneous
#: draw and bincounts its buckets itself, only the UE and LOLOHA engines
#: fold through the delta cache, and only the packed memo tables (UE,
#: dBitFlipPM) report their size.
FAMILY_METRICS = {
    "engines.init_s": FAMILIES,
    "engines.round_self_s": FAMILIES,
    "state.memo_s": FAMILIES,
    "state.fresh_pairs": FAMILIES,
    "state.hit_ratio": FAMILIES,
    "state.memo_bytes": ("ue", "dbitflip"),
    "kernels.fresh_s": FAMILIES,
    "kernels.fresh_bits": FAMILIES,
    "kernels.draw_s": ("ue", "grr", "loloha"),
    "kernels.draw_calls": ("ue", "grr", "loloha"),
    "fold_s": ("ue", "grr", "loloha"),
    "fold.rows": ("ue", "grr", "loloha"),
    "fold.delta_share": ("ue", "loloha"),
    "sinks.add_s": FAMILIES,
    "sinks.debias_s": FAMILIES,
}

_FRESH_KERNELS = ("ue_fresh_rows_kernel", "grr_kernel", "dbitflip_fresh_bits_kernel")
_DRAW_KERNELS = (
    "ue_binomial_counts_kernel",
    "ue_binomial_counts_batch_kernel",
    "grr_mixing_counts_kernel",
    "grr_mixing_counts_batch_kernel",
)


def family_of(protocol) -> str:
    """Engine family of a live protocol object."""
    for kind, family in (
        (LongitudinalUnaryEncoding, "ue"),
        (LGRR, "grr"),
        (LOLOHA, "loloha"),
        (DBitFlipPM, "dbitflip"),
    ):
        if isinstance(protocol, kind):
            return family
    raise TypeError(f"no engine family for {type(protocol).__name__}")


def _fold_counters():
    registry = default_registry()
    return (
        registry.counter("repro_sim_delta_folds_total").value(),
        registry.counter("repro_sim_full_refolds_total").value(),
    )


class LayerTracer:
    """Accumulates per-layer self times and counts for one traced pass."""

    def __init__(self) -> None:
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)
        self.family = None
        self.engine = None
        self._children = []
        self._folds_at_start = (0.0, 0.0)

    def _name(self, metric: str, per_family: bool) -> str:
        return f"{metric}.{self.family}" if per_family and self.family else metric

    def add(self, metric: str, amount: float, per_family: bool = True) -> None:
        self.counts[self._name(metric, per_family)] += amount

    def wrap(self, metric, function, per_family=True, on_result=None):
        """``function`` with its self time added to ``metric``."""

        def traced(*args, **kwargs):
            name = self._name(metric, per_family)
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.seconds[name] += elapsed - self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
            if on_result is not None:
                on_result(result, *args)
            return result

        return traced

    # -- point boundaries ------------------------------------------------ #
    def point_started(self, protocol) -> None:
        self.family = family_of(protocol)
        self._folds_at_start = _fold_counters()

    def point_finished(self) -> None:
        delta, full = _fold_counters()
        self.add("fold.delta_rounds", delta - self._folds_at_start[0])
        self.add("fold.full_rounds", full - self._folds_at_start[1])
        nbytes = self.engine.memo_nbytes() if self.engine is not None else None
        name = self._name("state.memo_bytes", True)
        self.counts[name] = max(self.counts[name], float(nbytes or 0))
        self.engine = None

    def family_metrics(self):
        """The per-family layer metrics, derived ratios included."""
        def get(name):
            return self.seconds.get(name, 0.0) + self.counts.get(name, 0.0)

        out = {}
        for metric, families in FAMILY_METRICS.items():
            for family in families:
                out[f"{metric}.{family}"] = get(f"{metric}.{family}")
        for family in FAMILIES:
            lookups = get(f"state.lookups.{family}")
            out[f"state.hit_ratio.{family}"] = (
                1.0 - get(f"state.fresh_pairs.{family}") / lookups if lookups else 0.0
            )
        for family in FAMILY_METRICS["fold.delta_share"]:
            delta = get(f"fold.delta_rounds.{family}")
            folds = delta + get(f"fold.full_rounds.{family}")
            out[f"fold.delta_share.{family}"] = delta / folds if folds else 0.0
        return out


def _traced_backend(backend: KernelBackend, tracer: LayerTracer) -> KernelBackend:
    def rows(result, first, *rest):
        tracer.add("fold.rows", len(first))

    return KernelBackend(
        name=backend.name,
        packed_column_sums=tracer.wrap("fold_s", backend.packed_column_sums, on_result=rows),
        support_fold=tracer.wrap("fold_s", backend.support_fold, on_result=rows),
        symbol_bincount=tracer.wrap("fold_s", backend.symbol_bincount, on_result=rows),
    )


def _traced_memo(protocol, n_users: int, tracer: LayerTracer):
    """The memo table the engine would build itself, with timed methods."""
    if isinstance(protocol, LOLOHA):
        memo = DenseSymbolMemo(n_users, protocol.g)
    elif isinstance(protocol, LGRR):
        memo = DenseSymbolMemo(n_users, protocol.k)
    elif isinstance(protocol, DBitFlipPM):
        memo = make_packed_bit_memo(n_users, protocol.d + 1, protocol.d)
    else:
        memo = make_packed_bit_memo(n_users, protocol.k, protocol.k)

    def lookups(result, keys, *rest):
        tracer.add("state.lookups", len(keys))

    if isinstance(memo, DenseSymbolMemo):
        memo.resolve = tracer.wrap("state.memo_s", memo.resolve, on_result=lookups)
    else:
        # Packed ``resolve`` calls ``ensure_rows`` then ``packed_rows``
        # through the instance, so only ``ensure_rows`` counts lookups.
        memo.ensure_rows = tracer.wrap("state.memo_s", memo.ensure_rows, on_result=lookups)
        memo.packed_rows = tracer.wrap("state.memo_s", memo.packed_rows)
        memo.resolve = tracer.wrap("state.memo_s", memo.resolve)
    return memo


def _traced_sink_class(tracer: LayerTracer):
    def finished(result, *args):
        tracer.point_finished()

    class TracedSink(SupportCountSink):
        add_round = tracer.wrap("sinks.add_s", SupportCountSink.add_round)
        estimates = tracer.wrap(
            "sinks.debias_s", SupportCountSink.estimates, on_result=finished
        )

    return TracedSink


class TracedStore:
    """Results-store wrapper timing ``append_rows`` (all ``run_sweep`` needs)."""

    def __init__(self, store, tracer: LayerTracer) -> None:
        self.has_rows = store.has_rows
        self.append_rows = tracer.wrap("store.append_s", store.append_rows, per_family=False)


@contextmanager
def traced_simulation(tracer: LayerTracer):
    """Route every simulation layer through ``tracer`` inside the block."""
    original_engine_for = runner.engine_for

    def traced_engine_for(protocol, n_users, rng=None, **options):
        tracer.point_started(protocol)
        options["backend"] = _traced_backend(resolve_backend(options.get("backend")), tracer)
        options["memo"] = _traced_memo(protocol, n_users, tracer)
        if isinstance(protocol, LOLOHA):
            family = protocol.family
            family.sample_hashed_domains = tracer.wrap(
                "hashing.sample_domains_s", family.sample_hashed_domains, per_family=False
            )
        engine = tracer.wrap("engines.init_s", original_engine_for)(
            protocol, n_users, rng, **options
        )
        engine.run_rounds = tracer.wrap("engines.round_self_s", engine.run_rounds)
        tracer.engine = engine
        return engine

    def fresh_counts(rows, keys, *rest):
        tracer.add("state.fresh_pairs", len(keys))
        tracer.add("kernels.fresh_bits", np.size(rows))

    def draw_calls(result, *args):
        tracer.add("kernels.draw_calls", 1)

    patches = [
        (runner, "engine_for", traced_engine_for),
        (runner, "SupportCountSink", _traced_sink_class(tracer)),
    ]
    for name in _FRESH_KERNELS:
        kernel = getattr(engines, name)
        patches.append(
            (engines, name, tracer.wrap("kernels.fresh_s", kernel, on_result=fresh_counts))
        )
    for name in _DRAW_KERNELS:
        kernel = getattr(engines, name)
        patches.append(
            (engines, name, tracer.wrap("kernels.draw_s", kernel, on_result=draw_calls))
        )
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    try:
        for module, name, replacement in patches:
            setattr(module, name, replacement)
        yield tracer
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
