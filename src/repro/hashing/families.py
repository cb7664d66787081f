"""Universal hash families mapping an integer domain ``[0..k)`` to ``[0..g)``.

Each family exposes :meth:`UniversalHashFamily.sample`, which draws a random
member function.  Member functions are lightweight, picklable value objects
identified by their integer parameters, so a client can transmit "which hash
function I chose" to the server as required by LH / LOLOHA protocols.

All functions support scalar evaluation (``h(value)``) and vectorized
evaluation over numpy arrays (``h.hash_array(values)``), and expose
``h.hash_all(k)``: the image of the whole input domain, which is what the
server needs in order to compute support counts.

:meth:`UniversalHashFamily.sample_hashed_domains` hashes the whole domain
under one fresh member per user, the table a LOLOHA population engine
holds.  Every implementation returns it in :func:`hashed_domain_dtype`:
int16 when ``g < 2^15``, else int32 (int64 only past ``g = 2^31``).
"""

from __future__ import annotations

import hashlib
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .._validation import as_rng, require_domain_size, require_int_at_least
from ..exceptions import ParameterError
from ..rng import RngLike

__all__ = [
    "HashFunction",
    "UniversalHashFamily",
    "MultiplyShiftHashFamily",
    "PolynomialHashFamily",
    "TabulationHashFamily",
    "BlakeHashFamily",
    "family_from_name",
    "hashed_domain_dtype",
]

#: Mersenne prime 2^61 - 1, used as the field size of the polynomial family.
_MERSENNE_61 = (1 << 61) - 1

#: Bytes of uint64 scratch one row block of the batched multiply-shift draw
#: uses; the block, not the ``(n, k)`` table, bounds the draw's transients.
_MULTIPLY_SHIFT_BLOCK_BYTES = 1 << 20

#: Index of the high 32-bit word of a uint64 viewed as two uint32 words.
_HIGH_WORD = 1 if sys.byteorder == "little" else 0


def hashed_domain_dtype(g: int) -> np.dtype:
    """The dtype of a hashed-domain table with ``g`` hash values: int16 when
    ``g < 2^15``, else int32 (int64 only when the values outgrow int32)."""
    if g < 2**15:
        return np.dtype(np.int16)
    return np.dtype(np.int32 if g <= 2**31 else np.int64)


class HashFunction(ABC):
    """A single hash function ``h : [0..k) -> [0..g)``."""

    #: Size of the output range.
    g: int

    def __call__(self, value: int) -> int:
        """Hash a single value."""
        return int(self.hash_array(np.asarray([value], dtype=np.int64))[0])

    @abstractmethod
    def hash_array(self, values: np.ndarray) -> np.ndarray:
        """Hash a numpy array of values element-wise, returning int64 hashes."""

    def hash_all(self, k: int) -> np.ndarray:
        """Return the hashes of the full input domain ``0, 1, ..., k - 1``."""
        return self.hash_array(np.arange(int(k), dtype=np.int64))

    @property
    @abstractmethod
    def identity(self) -> Tuple:
        """A hashable tuple of parameters uniquely identifying this function."""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashFunction):
            return NotImplemented
        return type(self) is type(other) and self.identity == other.identity

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.identity))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(g={self.g}, identity={self.identity})"


class UniversalHashFamily(ABC):
    """A family of hash functions from which clients sample uniformly."""

    def __init__(self, g: int) -> None:
        self.g = require_domain_size(g, "g", minimum=2)

    @abstractmethod
    def sample(self, rng: RngLike = None) -> HashFunction:
        """Draw a uniformly random member of the family."""

    def sample_hashed_domains(
        self, n_functions: int, k: int, rng: RngLike = None
    ) -> np.ndarray:
        """Hash the full domain ``[0..k)`` under ``n_functions`` fresh members.

        Returns an ``(n_functions, k)`` matrix of dtype
        :func:`hashed_domain_dtype` whose row ``i`` is the image of the whole
        domain under the ``i``-th sampled function — the per-user table the
        LOLOHA population engines need.  This generic implementation samples
        one member at a time and writes its row into the table; families with
        cheap parameterizations (e.g. multiply-shift) override it with a
        vectorized batch draw under the same contract.
        """
        n_functions = require_int_at_least(n_functions, 1, "n_functions")
        generator = as_rng(rng)
        table = np.empty((n_functions, int(k)), dtype=hashed_domain_dtype(self.g))
        for row in table:
            row[:] = self.sample(generator).hash_all(k)
        return table

    @property
    def name(self) -> str:
        """Short family name used in configuration files and reports."""
        return type(self).__name__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(g={self.g})"


@dataclass(frozen=True)
class _MultiplyShiftFunction(HashFunction):
    """Dietzfelbinger multiply-shift: ``h(x) = ((a*x + b) mod 2^64) >> (64 - log2(m))``
    reduced to ``[0..g)`` by a final modulo."""

    a: int
    b: int
    g: int

    def hash_array(self, values: np.ndarray) -> np.ndarray:
        x = np.asarray(values, dtype=np.uint64)
        with np.errstate(over="ignore"):
            mixed = (np.uint64(self.a) * x + np.uint64(self.b))
        # Take the high 32 bits before reducing: the high bits of a
        # multiply-shift product are the (near-)uniform ones.
        high = (mixed >> np.uint64(32)).astype(np.int64)
        return high % np.int64(self.g)

    @property
    def identity(self) -> Tuple:
        return (self.a, self.b, self.g)


class MultiplyShiftHashFamily(UniversalHashFamily):
    """2-universal multiply-shift family for 64-bit integer keys."""

    def sample(self, rng: RngLike = None) -> HashFunction:
        generator = as_rng(rng)
        # ``a`` must be odd for the multiply-shift scheme.
        a = int(generator.integers(1, 2**63, dtype=np.uint64)) * 2 + 1
        b = int(generator.integers(0, 2**63, dtype=np.uint64))
        return _MultiplyShiftFunction(a=a & (2**64 - 1), b=b, g=self.g)

    def sample_hashed_domains(
        self, n_functions: int, k: int, rng: RngLike = None
    ) -> np.ndarray:
        """Batched draw: one ``(a, b)`` pair per row, drawn in one call each.

        The hash is evaluated in row blocks of about
        :data:`_MULTIPLY_SHIFT_BLOCK_BYTES` of uint64 scratch: multiply, add,
        then a uint32 ``% g`` of each product's high word, written straight
        into the :func:`hashed_domain_dtype` table.  The rows equal
        ``_MultiplyShiftFunction(a, b, g).hash_all(k)``; no ``(n, k)`` uint64
        temporary is ever built.
        """
        n_functions = require_int_at_least(n_functions, 1, "n_functions")
        generator = as_rng(rng)
        with np.errstate(over="ignore"):
            a = generator.integers(1, 2**63, size=n_functions, dtype=np.uint64)
            a = a * np.uint64(2) + np.uint64(1)
            b = generator.integers(0, 2**63, size=n_functions, dtype=np.uint64)
        k = int(k)
        x = np.arange(k, dtype=np.uint64)
        table = np.empty((n_functions, k), dtype=hashed_domain_dtype(self.g))
        block_rows = max(1, _MULTIPLY_SHIFT_BLOCK_BYTES // (8 * max(k, 1)))
        mixed = np.empty((min(block_rows, n_functions), k), dtype=np.uint64)
        high = mixed.view(np.uint32)[:, _HIGH_WORD::2]
        divisor = np.uint32(self.g) if self.g < 2**32 else np.uint64(self.g)
        for start in range(0, n_functions, block_rows):
            stop = min(start + block_rows, n_functions)
            rows = stop - start
            # Unsigned arithmetic wraps mod 2^64 without a warning.
            np.multiply(a[start:stop, None], x, out=mixed[:rows])
            mixed[:rows] += b[start:stop, None]
            np.remainder(high[:rows], divisor, out=table[start:stop], casting="unsafe")
        return table


@dataclass(frozen=True)
class _PolynomialFunction(HashFunction):
    """Polynomial hashing over the field GF(2^61 - 1), reduced modulo ``g``."""

    coefficients: Tuple[int, ...]
    g: int

    def hash_array(self, values: np.ndarray) -> np.ndarray:
        x = np.asarray(values, dtype=np.object_) % _MERSENNE_61
        acc = np.zeros(x.shape, dtype=np.object_)
        # Horner evaluation with python ints (exact arithmetic; the domain
        # sizes used by LDP protocols keep this fast enough).
        for coef in self.coefficients:
            acc = (acc * x + coef) % _MERSENNE_61
        return (acc % self.g).astype(np.int64)

    @property
    def identity(self) -> Tuple:
        return (self.coefficients, self.g)


class PolynomialHashFamily(UniversalHashFamily):
    """``degree``-independent polynomial family modulo a Mersenne prime."""

    def __init__(self, g: int, degree: int = 2) -> None:
        super().__init__(g)
        self.degree = require_int_at_least(degree, 1, "degree")

    def sample(self, rng: RngLike = None) -> HashFunction:
        generator = as_rng(rng)
        coefficients = [int(generator.integers(0, _MERSENNE_61)) for _ in range(self.degree + 1)]
        # Ensure the leading coefficient is non-zero so the degree is exact.
        if coefficients[0] == 0:
            coefficients[0] = 1
        return _PolynomialFunction(coefficients=tuple(coefficients), g=self.g)


@dataclass(frozen=True, eq=False)
class _TabulationFunction(HashFunction):
    """Simple tabulation hashing over four 16-bit characters of the key.

    ``tables`` is a read-only ``(4, 2^16)`` uint64 array, one row per
    character; equality and hashing go through :attr:`identity`.
    """

    tables: np.ndarray
    g: int

    def hash_array(self, values: np.ndarray) -> np.ndarray:
        x = np.asarray(values, dtype=np.uint64)
        out = np.zeros(x.shape, dtype=np.uint64)
        for chunk_index, table in enumerate(self.tables):
            out ^= table[(x >> np.uint64(16 * chunk_index)) & np.uint64(0xFFFF)]
        return (out % np.uint64(self.g)).astype(np.int64)

    @property
    def identity(self) -> Tuple:
        # The tables are large; identify by a digest of their bytes.
        digest = hashlib.blake2b(self.tables.tobytes(), digest_size=16).hexdigest()
        return (digest, self.g)


class TabulationHashFamily(UniversalHashFamily):
    """Simple tabulation hashing (Zobrist hashing) with four 16-bit chunks."""

    n_chunks = 4

    def sample(self, rng: RngLike = None) -> HashFunction:
        generator = as_rng(rng)
        tables = np.stack(
            [
                generator.integers(0, 2**63, size=2**16, dtype=np.uint64)
                for _ in range(self.n_chunks)
            ]
        )
        tables.flags.writeable = False
        return _TabulationFunction(tables=tables, g=self.g)


#: Each 64-byte BLAKE2b digest yields eight independent 8-byte words.
_BLAKE_WORDS_PER_BLOCK = 8


@dataclass(frozen=True)
class _BlakeFunction(HashFunction):
    """Seeded BLAKE2b hashing in counter mode, reduced modulo ``g``.

    Mirrors the seeded xxhash construction used by the reference LOLOHA and
    pure-LDP implementations: the seed plays the role of the hash-function
    identifier transmitted to the server.

    Digests are produced in *counter mode*: one 64-byte BLAKE2b call over
    the block index ``value // 8`` yields eight independent 8-byte words,
    and value ``v`` reads word ``v % 8``.  This amortizes one ``hashlib``
    call over eight domain values and lets :meth:`hash_array` do all
    word-extraction and modulo arithmetic vectorized in numpy — the hot
    path when hashing whole domains for a LOLOHA population.
    """

    seed: int
    g: int
    _cache: dict = field(default_factory=dict, compare=False, repr=False, hash=False)

    def _block_words(self, block: int) -> np.ndarray:
        """The eight 64-bit words of one counter-mode digest block (cached)."""
        cached = self._cache.get(block)
        if cached is not None:
            return cached
        payload = int(block).to_bytes(8, "little", signed=False)
        salt = int(self.seed).to_bytes(8, "little", signed=False)
        digest = hashlib.blake2b(payload, digest_size=64, salt=salt + b"\x00" * 8).digest()
        words = np.frombuffer(digest, dtype="<u8")
        self._cache[block] = words
        return words

    def hash_array(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        flat = values.ravel()
        if flat.size == 0:
            return np.zeros(values.shape, dtype=np.int64)
        blocks = flat // _BLAKE_WORDS_PER_BLOCK
        word_index = flat % _BLAKE_WORDS_PER_BLOCK
        unique_blocks = np.unique(blocks)
        table = np.stack([self._block_words(int(b)) for b in unique_blocks])
        rows = np.searchsorted(unique_blocks, blocks)
        out = (table[rows, word_index] % np.uint64(self.g)).astype(np.int64)
        return out.reshape(values.shape)

    @property
    def identity(self) -> Tuple:
        return (self.seed, self.g)


class BlakeHashFamily(UniversalHashFamily):
    """Seeded cryptographic hash family (BLAKE2b, counter mode)."""

    def sample(self, rng: RngLike = None) -> HashFunction:
        generator = as_rng(rng)
        seed = int(generator.integers(0, 2**63 - 1))
        return _BlakeFunction(seed=seed, g=self.g)

    def sample_hashed_domains(
        self, n_functions: int, k: int, rng: RngLike = None
    ) -> np.ndarray:
        """Batched draw: one seed per row, counter-mode digests per block.

        Replaces the generic per-function/per-value fallback: all seeds are
        drawn in one call and each row hashes the whole domain through the
        vectorized counter-mode path (``ceil(k / 8)`` digests per function
        instead of ``k``), so crypto hashing stays usable as a LOLOHA
        population default.  Rows are written into a
        :func:`hashed_domain_dtype` table.
        """
        n_functions = require_int_at_least(n_functions, 1, "n_functions")
        generator = as_rng(rng)
        seeds = generator.integers(0, 2**63 - 1, size=n_functions)
        domain = np.arange(int(k), dtype=np.int64)
        table = np.empty((n_functions, domain.size), dtype=hashed_domain_dtype(self.g))
        for row, seed in zip(table, seeds):
            row[:] = _BlakeFunction(seed=int(seed), g=self.g).hash_array(domain)
        return table


_FAMILY_REGISTRY = {
    "multiply-shift": MultiplyShiftHashFamily,
    "polynomial": PolynomialHashFamily,
    "tabulation": TabulationHashFamily,
    "blake": BlakeHashFamily,
}


def family_from_name(name: str, g: int, **kwargs) -> UniversalHashFamily:
    """Instantiate a hash family by its registry name.

    Parameters
    ----------
    name:
        One of ``"multiply-shift"``, ``"polynomial"``, ``"tabulation"``,
        ``"blake"``.
    g:
        Output range size.
    kwargs:
        Extra family-specific arguments (e.g. ``degree`` for the polynomial
        family).
    """
    try:
        cls = _FAMILY_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_FAMILY_REGISTRY))
        raise ParameterError(f"unknown hash family {name!r}; known families: {known}") from None
    return cls(g, **kwargs)
