"""Random-number-generation utilities.

Every stochastic component of the library accepts an optional ``rng`` argument
(``None``, an integer seed or a :class:`numpy.random.Generator`).  This module
adds helpers for deriving independent per-user / per-round streams from a
single root seed so that large simulations are reproducible yet do not share
one generator across logically independent actors.
"""

from __future__ import annotations

from typing import List, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]

__all__ = [
    "RngLike",
    "derive_seed_sequences",
    "derive_generators",
]


def derive_seed_sequences(root: RngLike, count: int) -> List[np.random.SeedSequence]:
    """Derive ``count`` independent child :class:`~numpy.random.SeedSequence`.

    This is the picklable form of :func:`derive_generators`: the ``i``-th
    child seeds exactly the generator ``derive_generators(root, count)[i]``,
    so work can be sharded across processes (each worker builds its generator
    locally with ``np.random.default_rng(child)``) while remaining
    bit-identical to the serial execution.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(root, np.random.SeedSequence):
        seq = root
    elif isinstance(root, np.random.Generator):
        # Use the generator itself to produce a child seed; this keeps the
        # call deterministic with respect to the generator state.
        seq = np.random.SeedSequence(int(root.integers(0, 2**63 - 1)))
    elif root is None:
        seq = np.random.SeedSequence()
    else:
        seq = np.random.SeedSequence(int(root))
    return seq.spawn(count)


def derive_generators(root: RngLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` statistically independent generators from ``root``.

    The derivation uses :class:`numpy.random.SeedSequence` spawning, which is
    the supported way of creating parallel streams.  Passing the same root
    seed always yields the same list of generators.
    """
    return [np.random.default_rng(child) for child in derive_seed_sequences(root, count)]
