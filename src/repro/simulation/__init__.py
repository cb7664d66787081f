"""Longitudinal collection simulation: kernels, state, sinks, engines, sweeps.

The subsystem is layered (see ``docs/architecture.md``):

1. :mod:`~repro.simulation.kernels` — pure, stateless, vectorized numpy
   perturbation and debiasing functions, shared with the one-shot oracles of
   :mod:`repro.freq_oneshot`;
2. :mod:`~repro.simulation.state` — dense per-population memoization tables
   with lazy batch initialization;
3. :mod:`~repro.simulation.sinks` — the streaming support-count
   accumulator and its debiasing;
4. :mod:`~repro.simulation.engines` — one vectorized population per protocol
   family, each a thin composition of kernel + state;
5. :mod:`~repro.simulation.runner` / :mod:`~repro.simulation.sweep` — the
   end-to-end simulation of one run, and the (optionally process-parallel)
   ``(protocol, eps_inf, alpha)`` grid sweep on top of it.

A *reference* path (:func:`~repro.simulation.runner.simulate_with_clients`)
drives the per-user client objects of :mod:`repro.longitudinal` directly;
equivalence tests check that the vectorized engines agree with it
statistically.

Submodules are imported lazily (PEP 562) so that low-level layers — in
particular :mod:`repro.simulation.kernels`, which the one-shot oracles
import — can be loaded without pulling in the protocol stack.
"""

from importlib import import_module
from typing import TYPE_CHECKING

_EXPORTS = {
    # kernels
    "grr_kernel": ".kernels",
    "grr_mixing_counts_kernel": ".kernels",
    "grr_mixing_counts_batch_kernel": ".kernels",
    "one_hot_kernel": ".kernels",
    "symbol_bincount_kernel": ".kernels",
    "ue_flip_kernel": ".kernels",
    "ue_fresh_rows_kernel": ".kernels",
    "ue_binomial_counts_kernel": ".kernels",
    "ue_binomial_counts_batch_kernel": ".kernels",
    "packed_column_sums_kernel": ".kernels",
    "dbitflip_fresh_bits_kernel": ".kernels",
    "sample_buckets_kernel": ".kernels",
    "debias_kernel": ".kernels",
    "chained_debias_kernel": ".kernels",
    "support_from_hashes_kernel": ".kernels",
    # kernel backend dispatch
    "KernelBackend": ".kernels_backend",
    "available_backend_names": ".kernels_backend",
    "default_backend": ".kernels_backend",
    "native_available": ".kernels_backend",
    "resolve_backend": ".kernels_backend",
    # state
    "DenseSymbolMemo": ".state",
    "PackedBitMemo": ".state",
    "SparsePackedBitMemo": ".state",
    "make_packed_bit_memo": ".state",
    # sinks
    "SupportCountSink": ".sinks",
    "estimate_support_counts": ".sinks",
    # engines
    "PopulationEngine": ".engines",
    "GRRChainEngine": ".engines",
    "UnaryChainEngine": ".engines",
    "DBitFlipEngine": ".engines",
    "LOLOHAEngine": ".engines",
    "engine_for": ".engines",
    # metrics
    "mse_per_round": ".metrics",
    "averaged_mse": ".metrics",
    "averaged_longitudinal_privacy_loss": ".metrics",
    # runner
    "SimulationResult": ".runner",
    "round_windows": ".runner",
    "simulate_protocol": ".runner",
    "simulate_with_clients": ".runner",
    # sweep
    "SweepPoint": ".sweep",
    "SweepTask": ".sweep",
    "run_sweep": ".sweep",
    "run_sweep_spec": ".sweep",
    "completed_points_from_rows": ".sweep",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(module_name, __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .engines import (
        DBitFlipEngine,
        GRRChainEngine,
        LOLOHAEngine,
        PopulationEngine,
        UnaryChainEngine,
        engine_for,
    )
    from .kernels import (
        chained_debias_kernel,
        dbitflip_fresh_bits_kernel,
        debias_kernel,
        grr_kernel,
        grr_mixing_counts_batch_kernel,
        grr_mixing_counts_kernel,
        one_hot_kernel,
        packed_column_sums_kernel,
        sample_buckets_kernel,
        support_from_hashes_kernel,
        symbol_bincount_kernel,
        ue_binomial_counts_batch_kernel,
        ue_binomial_counts_kernel,
        ue_flip_kernel,
        ue_fresh_rows_kernel,
    )
    from .kernels_backend import (
        KernelBackend,
        available_backend_names,
        default_backend,
        native_available,
        resolve_backend,
    )
    from .metrics import (
        averaged_longitudinal_privacy_loss,
        averaged_mse,
        mse_per_round,
    )
    from .runner import (
        SimulationResult,
        round_windows,
        simulate_protocol,
        simulate_with_clients,
    )
    from .sinks import SupportCountSink, estimate_support_counts
    from .state import (
        DenseSymbolMemo,
        PackedBitMemo,
        SparsePackedBitMemo,
        make_packed_bit_memo,
    )
    from .sweep import (
        SweepPoint,
        SweepTask,
        completed_points_from_rows,
        run_sweep,
        run_sweep_spec,
    )
