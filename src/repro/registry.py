"""String-keyed protocol registry: build protocols from declarative specs.

Every longitudinal protocol of the paper registers a *builder* — a function
``(ProtocolSpec) -> LongitudinalProtocol`` — under its canonical name (plus
aliases).  :func:`build_protocol` is the single construction entry point of
the public API and replaces the old protocol factory closures: because a
:class:`~repro.specs.ProtocolSpec` is plain data, sweep tasks and shard work
units can be pickled and shipped across processes.

Registered names (see :func:`registered_protocols`):

``L-GRR``, ``L-SUE`` (alias ``RAPPOR``), ``L-OSUE``, ``L-OUE``, ``L-SOUE``,
``LOLOHA``, ``BiLOLOHA``, ``OLOLOHA``, ``dBitFlipPM``.

Protocol-specific spec params:

=============  =====================================================
``dBitFlipPM``  ``b`` (bucket count; defaults to the paper's rule of
                :func:`dbitflip_bucket_count`), ``d`` (sampled buckets,
                default ``1``; the string ``"b"`` means ``d = b``)
``LOLOHA``      ``g`` (hashed-domain size; default Eq. (6) optimum),
                ``hash_family`` (registry name, see
                :func:`repro.hashing.family_from_name`)
``BiLOLOHA`` /  ``hash_family``
``OLOLOHA``
=============  =====================================================
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

from .exceptions import ParameterError
from .hashing import family_from_name
from .longitudinal import (
    BiLOLOHA,
    DBitFlipPM,
    LGRR,
    LOLOHA,
    LOSUE,
    LOUE,
    LSOUE,
    LSUE,
    OLOLOHA,
)
from .longitudinal.base import LongitudinalProtocol
from .longitudinal.optimal_g import optimal_g
from .specs import ProtocolSpec

__all__ = [
    "ProtocolBuilder",
    "register_protocol",
    "registered_protocols",
    "build_protocol",
    "dbitflip_bucket_count",
]

#: A builder turns a concrete spec into a live protocol object.
ProtocolBuilder = Callable[[ProtocolSpec], LongitudinalProtocol]

_BUILDERS: Dict[str, ProtocolBuilder] = {}
#: Canonical name of every registered key (aliases map to their target).
_CANONICAL: Dict[str, str] = {}


def register_protocol(
    name: str,
    builder: Optional[ProtocolBuilder] = None,
    *,
    aliases: Iterable[str] = (),
    overwrite: bool = False,
):
    """Register ``builder`` under ``name`` (and ``aliases``).

    Usable directly (``register_protocol("X", build_x)``) or as a decorator::

        @register_protocol("X", aliases=("Y",))
        def build_x(spec): ...
    """

    def _register(fn: ProtocolBuilder) -> ProtocolBuilder:
        for key in (name, *aliases):
            if key in _BUILDERS and not overwrite:
                raise ParameterError(f"protocol {key!r} is already registered")
            _BUILDERS[key] = fn
            _CANONICAL[key] = name
        return fn

    if builder is not None:
        return _register(builder)
    return _register


def registered_protocols() -> Tuple[str, ...]:
    """Every registered name and alias, sorted."""
    return tuple(sorted(_BUILDERS))


def build_protocol(spec: ProtocolSpec) -> LongitudinalProtocol:
    """Construct the protocol described by a concrete spec.

    Raises :class:`~repro.exceptions.ParameterError` for unknown protocol
    names, non-concrete specs (missing ``k`` or ``eps_inf``) and invalid or
    unknown protocol-specific params.
    """
    if not isinstance(spec, ProtocolSpec):
        raise ParameterError(
            f"build_protocol expects a ProtocolSpec, got {type(spec).__name__}"
        )
    try:
        builder = _BUILDERS[spec.name]
    except KeyError:
        known = ", ".join(registered_protocols())
        raise ParameterError(
            f"unknown protocol {spec.name!r}; registered protocols: {known}"
        ) from None
    if not spec.is_concrete:
        missing = [f for f in ("k", "eps_inf") if getattr(spec, f) is None]
        raise ParameterError(
            f"spec for {spec.name!r} is not concrete: missing {missing}; "
            f"fill grid fields with ProtocolSpec.at(...)"
        )
    return builder(spec)


def dbitflip_bucket_count(k: int) -> int:
    """The paper's bucket-count rule: ``b = k`` for ``k <= 360``, else ``b = k // 4``."""
    return k if k <= 360 else max(2, k // 4)


# ---------------------------------------------------------------------- #
# Builder helpers
# ---------------------------------------------------------------------- #
def _check_params(spec: ProtocolSpec, allowed: Tuple[str, ...]) -> None:
    unknown = set(spec.params) - set(allowed)
    if unknown:
        raise ParameterError(
            f"unknown params for protocol {spec.name!r}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def _chained_eps_1(spec: ProtocolSpec) -> float:
    eps_1 = spec.resolved_eps_1
    if eps_1 is None:
        raise ParameterError(
            f"protocol {spec.name!r} requires a first-report budget: set "
            f"'alpha' or 'eps_1' on the spec"
        )
    return eps_1


def _loloha_family(spec: ProtocolSpec, g: int):
    family_name = spec.params.get("hash_family")
    if family_name is None:
        return None
    if not isinstance(family_name, str):
        raise ParameterError(
            f"hash_family must be a family registry name string, got {family_name!r}"
        )
    return family_from_name(family_name, g)


# ---------------------------------------------------------------------- #
# Default registrations
# ---------------------------------------------------------------------- #
@register_protocol("L-GRR")
def _build_l_grr(spec: ProtocolSpec) -> LongitudinalProtocol:
    _check_params(spec, ())
    return LGRR(spec.k, spec.eps_inf, _chained_eps_1(spec))


@register_protocol("L-SUE", aliases=("RAPPOR",))
def _build_l_sue(spec: ProtocolSpec) -> LongitudinalProtocol:
    _check_params(spec, ())
    return LSUE(spec.k, spec.eps_inf, _chained_eps_1(spec))


@register_protocol("L-OSUE")
def _build_l_osue(spec: ProtocolSpec) -> LongitudinalProtocol:
    _check_params(spec, ())
    return LOSUE(spec.k, spec.eps_inf, _chained_eps_1(spec))


@register_protocol("L-OUE")
def _build_l_oue(spec: ProtocolSpec) -> LongitudinalProtocol:
    _check_params(spec, ())
    return LOUE(spec.k, spec.eps_inf, _chained_eps_1(spec))


@register_protocol("L-SOUE")
def _build_l_soue(spec: ProtocolSpec) -> LongitudinalProtocol:
    _check_params(spec, ())
    return LSOUE(spec.k, spec.eps_inf, _chained_eps_1(spec))


@register_protocol("LOLOHA")
def _build_loloha(spec: ProtocolSpec) -> LongitudinalProtocol:
    _check_params(spec, ("g", "hash_family"))
    eps_1 = _chained_eps_1(spec)
    g = spec.params.get("g")
    if g is None:
        g = optimal_g(spec.eps_inf, eps_1)
    return LOLOHA(spec.k, spec.eps_inf, eps_1, g=g, family=_loloha_family(spec, int(g)))


@register_protocol("BiLOLOHA")
def _build_biloloha(spec: ProtocolSpec) -> LongitudinalProtocol:
    _check_params(spec, ("hash_family",))
    eps_1 = _chained_eps_1(spec)
    return BiLOLOHA(spec.k, spec.eps_inf, eps_1, family=_loloha_family(spec, 2))


@register_protocol("OLOLOHA")
def _build_ololoha(spec: ProtocolSpec) -> LongitudinalProtocol:
    _check_params(spec, ("hash_family",))
    eps_1 = _chained_eps_1(spec)
    g = optimal_g(spec.eps_inf, eps_1)
    return OLOLOHA(spec.k, spec.eps_inf, eps_1, family=_loloha_family(spec, g))


@register_protocol("dBitFlipPM")
def _build_dbitflip(spec: ProtocolSpec) -> LongitudinalProtocol:
    _check_params(spec, ("b", "d"))
    b = spec.params.get("b")
    if b is None:
        b = dbitflip_bucket_count(spec.k)
    b = int(b)
    d = spec.params.get("d", 1)
    if d == "b":  # "all sampled": d tracks the bucket count
        d = b
    elif isinstance(d, str):
        raise ParameterError(f"d must be an integer or the string 'b', got {d!r}")
    return DBitFlipPM(spec.k, spec.eps_inf, b=b, d=int(d))
