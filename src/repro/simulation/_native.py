"""Generated-C implementations of the three hottest simulation kernels.

This module is the *compiled half* of the execution tier
(``docs/architecture.md``): at first use it writes a small, dependency-free C
source file, compiles it with the system C compiler (``cc``/``gcc``) into a
cached shared library and binds the entry points through :mod:`ctypes`.  The
three kernels are exactly the hot spots named by the ROADMAP:

``packed_column_sums``
    The bit-sliced (SWAR) fold of packed memo rows into per-bit-position
    column sums — the UE/LOLOHA round workhorse.  The C version fuses the
    eight masked passes of the numpy kernel into one pass over the packed
    bytes with per-word byte-lane accumulators.

``support_fold``
    The LOLOHA support fold: count, per candidate value, the users whose
    hash of that value equals their (memoized) symbol.  Compiled per hash
    dtype (int16 / int32 / int64) so no input conversion is needed.

``symbol_bincount``
    The deterministic half of the aggregated GRR round (the per-symbol
    population sizes; the binomial mixing itself stays on the numpy
    ``Generator`` so randomness streams are backend-independent).

All three are pure integer computations, so their outputs are **exactly
equal** to the numpy oracles in :mod:`repro.simulation.kernels` — the
property tests assert equality, not closeness.  Everything here is
best-effort: any failure (no compiler, read-only filesystem, load error)
leaves :func:`load` returning ``None`` with a reason, and the dispatch layer
(:mod:`repro.simulation.kernels_backend`) falls back to numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from typing import Optional, Tuple

import numpy as np

from .._atomicio import atomic_write_text

__all__ = ["NativeKernels", "load", "unavailable_reason"]

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#define LANE 0x0101010101010101ULL

/* Flush per-word byte-lane accumulators (8 shifts x n_words) into the
 * int64 column totals.  Byte column c = 8*w + i is byte i (little-endian)
 * of word w; bit position j (MSB first, np.packbits layout) of that byte
 * was accumulated under shift 7 - j. */
static void flush_lanes(const uint64_t *scratch, int64_t n_words,
                        int64_t *out) {
    for (int64_t w = 0; w < n_words; ++w) {
        for (int shift = 0; shift < 8; ++shift) {
            uint64_t acc = scratch[w * 8 + shift];
            int j = 7 - shift;
            for (int i = 0; i < 8; ++i) {
                out[(w * 8 + i) * 8 + j] += (int64_t)((acc >> (8 * i)) & 0xFF);
            }
        }
    }
}

/* Add one word's eight bit positions to its byte-lane accumulators. */
static inline void accumulate_word(uint64_t v, uint64_t *acc) {
    acc[0] += v & LANE;
    acc[1] += (v >> 1) & LANE;
    acc[2] += (v >> 2) & LANE;
    acc[3] += (v >> 3) & LANE;
    acc[4] += (v >> 4) & LANE;
    acc[5] += (v >> 5) & LANE;
    acc[6] += (v >> 6) & LANE;
    acc[7] += (v >> 7) & LANE;
}

/* Column sums of bit-packed rows: rows is (n_rows, n_bytes) uint8 in
 * np.packbits layout, read in place; out is 64 * ceil(n_bytes / 8) int64
 * (zeroed by the caller).  Single fused SWAR pass: each uint64 word
 * contributes eight 0/1 byte lanes per bit position, accumulated for up to
 * 255 rows before widening.  A row's last n_bytes % 8 bytes are loaded
 * into a zeroed word, so no padded copy of the rows is needed. */
void repro_packed_column_sums(const uint8_t *rows, int64_t n_rows,
                              int64_t n_bytes, uint64_t *scratch,
                              int64_t *out) {
    const int64_t full_words = n_bytes / 8;
    const size_t tail_bytes = (size_t)(n_bytes % 8);
    const int64_t n_words = full_words + (tail_bytes != 0);
    memset(scratch, 0, (size_t)(8 * n_words) * sizeof(uint64_t));
    int since_flush = 0;
    for (int64_t r = 0; r < n_rows; ++r) {
        const uint8_t *row = rows + r * n_bytes;
        for (int64_t w = 0; w < full_words; ++w) {
            uint64_t v;
            memcpy(&v, row + w * 8, 8);
            accumulate_word(v, scratch + w * 8);
        }
        if (tail_bytes) {
            uint64_t v = 0;
            memcpy(&v, row + full_words * 8, tail_bytes);
            accumulate_word(v, scratch + full_words * 8);
        }
        if (++since_flush == 255) {
            flush_lanes(scratch, n_words, out);
            memset(scratch, 0, (size_t)(8 * n_words) * sizeof(uint64_t));
            since_flush = 0;
        }
    }
    if (since_flush) {
        flush_lanes(scratch, n_words, out);
    }
}

#define DEFINE_SUPPORT_FOLD(SUFFIX, T)                                       \
void repro_support_fold_##SUFFIX(const T *hashed, const T *reports,          \
                                 int64_t n_users, int64_t k, int64_t *out) { \
    for (int64_t u = 0; u < n_users; ++u) {                                  \
        const T *row = hashed + u * k;                                       \
        T rep = reports[u];                                                  \
        for (int64_t v = 0; v < k; ++v) {                                    \
            out[v] += (row[v] == rep);                                       \
        }                                                                    \
    }                                                                        \
}

DEFINE_SUPPORT_FOLD(i16, int16_t)
DEFINE_SUPPORT_FOLD(i32, int32_t)
DEFINE_SUPPORT_FOLD(i64, int64_t)

void repro_bincount_i64(const int64_t *values, int64_t n, int64_t k,
                        int64_t *out) {
    for (int64_t i = 0; i < n; ++i) {
        int64_t v = values[i];
        if (v >= 0 && v < k) {
            out[v] += 1;
        }
    }
}
"""

_I64_P = ctypes.POINTER(ctypes.c_int64)
_U64_P = ctypes.POINTER(ctypes.c_uint64)
_U8_P = ctypes.POINTER(ctypes.c_uint8)

_LOCK = threading.Lock()
_CACHED: Optional[Tuple[Optional["NativeKernels"], Optional[str]]] = None


def _source_digest() -> str:
    return hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]


def _build_dir() -> str:
    """A writable per-user cache directory for the compiled library."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    candidate = os.path.join(base, "repro-ldp")
    try:
        os.makedirs(candidate, exist_ok=True)
        return candidate
    except OSError:
        return tempfile.gettempdir()


def _compile() -> str:
    """Compile the C source (once per source version) and return the .so path."""
    directory = _build_dir()
    library = os.path.join(directory, f"repro_native_{_source_digest()}.so")
    if os.path.exists(library):
        return library
    source = os.path.join(directory, f"repro_native_{_source_digest()}.c")
    # Staged + renamed, so a process compiling at the same time never hands
    # the compiler a source this one has just truncated.
    atomic_write_text(source, _C_SOURCE)
    compiler = os.environ.get("CC", "cc")
    # Build into a temp name then rename, so a concurrent process never loads
    # a half-written library.
    scratch = library + f".tmp{os.getpid()}"
    subprocess.run(
        [compiler, "-O3", "-fPIC", "-shared", "-o", scratch, source],
        check=True,
        capture_output=True,
        timeout=120,
    )
    os.replace(scratch, library)
    return library


class NativeKernels:
    """ctypes bindings over the compiled kernel library."""

    def __init__(self, library: ctypes.CDLL, path: str) -> None:
        self._lib = library
        self.path = path
        library.repro_packed_column_sums.argtypes = [
            _U8_P,
            ctypes.c_int64,
            ctypes.c_int64,
            _U64_P,
            _I64_P,
        ]
        library.repro_packed_column_sums.restype = None
        library.repro_bincount_i64.argtypes = [
            _I64_P,
            ctypes.c_int64,
            ctypes.c_int64,
            _I64_P,
        ]
        library.repro_bincount_i64.restype = None
        self._support_folds = {}
        for suffix, dtype, pointer in (
            ("i16", np.int16, ctypes.POINTER(ctypes.c_int16)),
            ("i32", np.int32, ctypes.POINTER(ctypes.c_int32)),
            ("i64", np.int64, ctypes.POINTER(ctypes.c_int64)),
        ):
            function = getattr(library, f"repro_support_fold_{suffix}")
            function.argtypes = [
                pointer,
                pointer,
                ctypes.c_int64,
                ctypes.c_int64,
                _I64_P,
            ]
            function.restype = None
            self._support_folds[np.dtype(dtype)] = (function, pointer)

    def packed_column_sums(self, packed_rows: np.ndarray, n_bits: int) -> np.ndarray:
        """Exact drop-in for the numpy SWAR fold, one fused C pass.

        The rows are read in place: a row width that is not a whole number
        of 8-byte words has its last partial word loaded into a zeroed word
        by the C loop, so no padded copy is made.
        """
        packed_rows = np.ascontiguousarray(packed_rows, dtype=np.uint8)
        n_rows, n_bytes = packed_rows.shape
        n_words = -(-n_bytes // 8)
        out = np.zeros(64 * n_words, dtype=np.int64)
        if n_rows and n_words:
            scratch = np.empty(8 * n_words, dtype=np.uint64)
            self._lib.repro_packed_column_sums(
                packed_rows.ctypes.data_as(_U8_P),
                n_rows,
                n_bytes,
                scratch.ctypes.data_as(_U64_P),
                out.ctypes.data_as(_I64_P),
            )
        return out[:n_bits]

    def support_fold(self, hashed_domain: np.ndarray, reports: np.ndarray) -> np.ndarray:
        """Per-value count of users whose hash equals their report (int64)."""
        dtype = hashed_domain.dtype
        if dtype not in self._support_folds:
            dtype = np.dtype(np.int64)
            hashed_domain = hashed_domain.astype(np.int64)
        function, pointer = self._support_folds[dtype]
        hashed_domain = np.ascontiguousarray(hashed_domain, dtype=dtype)
        reports = np.ascontiguousarray(reports, dtype=dtype)
        n_users, k = hashed_domain.shape
        out = np.zeros(k, dtype=np.int64)
        function(
            hashed_domain.ctypes.data_as(pointer),
            reports.ctypes.data_as(pointer),
            n_users,
            k,
            out.ctypes.data_as(_I64_P),
        )
        return out

    def symbol_bincount(self, values: np.ndarray, minlength: int) -> np.ndarray:
        """Exact drop-in for ``np.bincount(values, minlength=...)``."""
        values = np.ascontiguousarray(values, dtype=np.int64)
        length = minlength
        if values.size:
            length = max(minlength, int(values.max()) + 1)
        out = np.zeros(length, dtype=np.int64)
        self._lib.repro_bincount_i64(
            values.ctypes.data_as(_I64_P),
            values.size,
            length,
            out.ctypes.data_as(_I64_P),
        )
        return out


def load() -> Tuple[Optional[NativeKernels], Optional[str]]:
    """Compile (if needed), load and bind the native kernels, cached.

    Returns ``(kernels, None)`` on success or ``(None, reason)`` when the
    compiled backend is unavailable — the dispatch layer treats the latter as
    "fall back to numpy", never as an error.
    """
    global _CACHED
    with _LOCK:
        if _CACHED is None:
            try:
                path = _compile()
                _CACHED = (NativeKernels(ctypes.CDLL(path), path), None)
            except Exception as error:  # any failure means "not available"
                _CACHED = (None, f"{type(error).__name__}: {error}")
        return _CACHED


def unavailable_reason() -> Optional[str]:
    """Why the native backend cannot be used (``None`` when it can)."""
    return load()[1]
