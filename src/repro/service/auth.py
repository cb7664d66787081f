"""Shared-secret payload authentication for the live ingestion service.

Report submissions may cross a network an attacker can write to.
:class:`PayloadAuthenticator` wraps every payload in an HMAC-SHA256
envelope::

    b"RHM1" + 32-byte HMAC-SHA256(key, payload) + payload

The ingest server and its clients (e.g. :mod:`repro.service.loadgen`) hold
the same secret: clients sign each submission body, the server verifies it.
A payload whose tag does not verify — tampered bytes, a signature stripped
off, a body signed with a different key — raises
:class:`AuthenticationError`, which the server answers with ``401``
instead of folding the batch.

The secret itself never travels through spec files: it is resolved from an
environment variable named by :attr:`repro.specs.IngestSpec.auth_key_env` /
``--auth-key-env`` (see :func:`authenticator_from_env`), so an
``ingest.json`` can be committed or shipped without leaking the key.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from typing import Optional

from ..exceptions import ExperimentError

__all__ = [
    "AuthenticationError",
    "PayloadAuthenticator",
    "authenticator_from_env",
]

_MAGIC = b"RHM1"
_TAG_BYTES = hashlib.sha256().digest_size
_HEADER_BYTES = len(_MAGIC) + _TAG_BYTES


class AuthenticationError(ExperimentError):
    """A payload failed HMAC verification (tampered, unsigned or wrong key)."""


class PayloadAuthenticator:
    """Signs and verifies payloads with one shared secret."""

    def __init__(self, key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)) or not key:
            raise ExperimentError("the authentication key must be non-empty bytes")
        self._key = bytes(key)

    def sign(self, payload: bytes) -> bytes:
        """Wrap ``payload`` in the signed envelope."""
        tag = hmac.new(self._key, payload, hashlib.sha256).digest()
        return _MAGIC + tag + payload

    def verify(self, blob: bytes) -> bytes:
        """Check the envelope and return the bare payload.

        Raises :class:`AuthenticationError` for unsigned blobs (no magic),
        truncated envelopes and tag mismatches.  Comparison is constant-time
        (:func:`hmac.compare_digest`).
        """
        if len(blob) < _HEADER_BYTES or not blob.startswith(_MAGIC):
            raise AuthenticationError(
                "payload is not signed but this endpoint requires authentication"
            )
        tag = blob[len(_MAGIC) : _HEADER_BYTES]
        payload = blob[_HEADER_BYTES:]
        expected = hmac.new(self._key, payload, hashlib.sha256).digest()
        if not hmac.compare_digest(tag, expected):
            raise AuthenticationError(
                "payload signature does not verify (tampered, or signed with a "
                "different key)"
            )
        return payload


def authenticator_from_env(env_name: Optional[str]) -> Optional[PayloadAuthenticator]:
    """Build an authenticator from the environment variable named ``env_name``.

    ``None`` (authentication off) passes through as ``None``.  Naming a
    variable that is unset or empty is a configuration error, not a silent
    downgrade to an unauthenticated service.
    """
    if env_name is None:
        return None
    value = os.environ.get(env_name)
    if not value:
        raise ExperimentError(
            f"authentication key environment variable {env_name!r} is not set "
            f"(export a shared secret in it on both the server and every "
            f"client)"
        )
    return PayloadAuthenticator(value.encode("utf-8"))
