"""Internal argument-validation helpers shared across the library.

These helpers keep the public constructors short and make the error messages
uniform.  They always raise :class:`repro.exceptions.ParameterError` (or a
subclass) so that callers only need to handle a single exception type for
configuration mistakes.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional, Sequence

import numpy as np

from .exceptions import DomainError, ParameterError

__all__ = [
    "require_positive",
    "require_probability",
    "require_int_at_least",
    "require_distinct",
    "require_epsilon",
    "require_epsilon_pair",
    "require_domain_size",
    "validate_value_in_domain",
    "validate_values_array",
    "as_rng",
]


def _require_real(value: object, name: str) -> None:
    """Refuse anything but a real number: ``str``, ``bool`` and ``None`` are
    not coerced (a spec file's ``"2"`` or ``true`` is a mistake, not a 2.0)."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ParameterError(f"{name} must be a real number, got {type(value).__name__}")


def require_positive(value: float, name: str) -> float:
    """Return ``value`` if it is a finite real number strictly greater than zero."""
    _require_real(value, name)
    if not math.isfinite(value) or value <= 0:
        raise ParameterError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


def require_probability(value: float, name: str, *, inclusive: bool = True) -> float:
    """Return ``value`` if it lies in ``[0, 1]`` (or ``(0, 1)`` when not inclusive)."""
    _require_real(value, name)
    if not math.isfinite(value):
        raise ParameterError(f"{name} must be a finite probability, got {value!r}")
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ParameterError(f"{name} must lie in [0, 1], got {value!r}")
    else:
        if not 0.0 < value < 1.0:
            raise ParameterError(f"{name} must lie in (0, 1), got {value!r}")
    return float(value)


def require_int_at_least(value: int, minimum: int, name: str) -> int:
    """Return ``value`` as ``int`` if it is an integer of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {type(value).__name__}")
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def require_distinct(values: Sequence[object], name: str) -> None:
    """Refuse a sequence in which some value appears more than once."""
    seen = set()
    for value in values:
        if value in seen:
            raise ParameterError(f"{name} repeats the value {value!r}")
        seen.add(value)


def require_epsilon(epsilon: float, name: str = "epsilon") -> float:
    """Validate a single privacy budget (finite, strictly positive)."""
    return require_positive(epsilon, name)


def require_epsilon_pair(eps_1: float, eps_inf: float) -> tuple:
    """Validate a first-report / longitudinal budget pair ``0 < eps_1 < eps_inf``."""
    eps_1 = require_epsilon(eps_1, "eps_1")
    eps_inf = require_epsilon(eps_inf, "eps_inf")
    if not eps_1 < eps_inf:
        raise ParameterError(
            "eps_1 (first-report budget) must be strictly smaller than eps_inf "
            f"(longitudinal budget); got eps_1={eps_1}, eps_inf={eps_inf}"
        )
    return eps_1, eps_inf


def require_domain_size(k: int, name: str = "k", *, minimum: int = 2) -> int:
    """Validate a domain size (integer of at least ``minimum``, default 2)."""
    return require_int_at_least(k, minimum, name)


def validate_value_in_domain(value: int, k: int, name: str = "value") -> int:
    """Validate that a single categorical value lies in ``[0, k)``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer in [0, {k}), got {value!r}")
    if not 0 <= value < k:
        raise DomainError(f"{name} must lie in [0, {k}), got {value}")
    return int(value)


def validate_values_array(values: Sequence[int], k: int, name: str = "values") -> np.ndarray:
    """Validate a batch of categorical values and return it as an int64 array."""
    arr = np.asarray(values)
    if arr.size == 0:
        return arr.astype(np.int64).reshape(arr.shape)
    if not np.issubdtype(arr.dtype, np.integer):
        if np.issubdtype(arr.dtype, np.floating) and np.all(arr == np.floor(arr)):
            arr = arr.astype(np.int64)
        else:
            raise DomainError(f"{name} must contain integers in [0, {k})")
    if arr.min() < 0 or arr.max() >= k:
        raise DomainError(
            f"{name} must contain integers in [0, {k}); "
            f"observed range [{arr.min()}, {arr.max()}]"
        )
    return arr.astype(np.int64)


def as_rng(rng: Optional[object]) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (a fresh non-deterministic generator), an integer seed,
    or an existing generator (returned unchanged).
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    raise ParameterError(
        "rng must be None, an integer seed, a numpy SeedSequence, or a "
        f"numpy.random.Generator; got {type(rng).__name__}"
    )
