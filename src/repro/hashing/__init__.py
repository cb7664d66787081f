"""Universal hash families used for local-hashing LDP protocols.

Local hashing (LH) protocols — and therefore LOLOHA — rely on a *universal*
family of hash functions ``H : [0..k) -> [0..g)``: for any two distinct inputs
the collision probability over the random choice of the function is at most
``1/g``.  This package provides several interchangeable families.

Public API
----------
``HashFunction``
    A single hash function with scalar and vectorized evaluation.
``UniversalHashFamily``
    Abstract base class; ``sample(rng)`` draws a random member function.
``MultiplyShiftHashFamily``
    Dietzfelbinger multiply-shift family for integer keys (fast, 2-universal).
``PolynomialHashFamily``
    Degree-``d`` polynomial modulo a Mersenne prime (``d``-independent).
``TabulationHashFamily``
    Simple tabulation hashing (3-independent, very uniform in practice).
``BlakeHashFamily``
    Seeded cryptographic (BLAKE2b) hashing, mirroring the seeded xxhash used
    by the reference LOLOHA / pure-LDP implementations.
"""

from .families import (
    BlakeHashFamily,
    HashFunction,
    MultiplyShiftHashFamily,
    PolynomialHashFamily,
    TabulationHashFamily,
    UniversalHashFamily,
    family_from_name,
)

__all__ = [
    "HashFunction",
    "UniversalHashFamily",
    "MultiplyShiftHashFamily",
    "PolynomialHashFamily",
    "TabulationHashFamily",
    "BlakeHashFamily",
    "family_from_name",
]
