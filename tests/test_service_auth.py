"""Tests for the HMAC payload envelope of the ingest service and loadgen."""

import pytest

from repro.exceptions import ExperimentError
from repro.service.auth import (
    AuthenticationError,
    PayloadAuthenticator,
    authenticator_from_env,
)

AUTH_KEY = PayloadAuthenticator(b"service-test-secret")
OTHER_KEY = PayloadAuthenticator(b"a-different-secret")


class TestAuthentication:
    def test_sign_verify_round_trip(self):
        payload = b'{"round": 1}'
        blob = AUTH_KEY.sign(payload)
        assert blob != payload
        assert AUTH_KEY.verify(blob) == payload

    def test_every_flipped_byte_is_rejected(self):
        """Tampering with any byte of a signed body — magic, tag or payload
        — must fail verification."""
        blob = AUTH_KEY.sign(b"payload-bytes")
        for position in range(len(blob)):
            tampered = bytearray(blob)
            tampered[position] ^= 0x01
            with pytest.raises(AuthenticationError):
                AUTH_KEY.verify(bytes(tampered))

    def test_unsigned_and_wrong_key_rejected(self):
        with pytest.raises(AuthenticationError, match="not signed"):
            AUTH_KEY.verify(b'{"round": 0, "reports": []}')
        with pytest.raises(AuthenticationError, match="does not verify"):
            AUTH_KEY.verify(OTHER_KEY.sign(b"payload"))

    def test_authenticator_from_env(self, monkeypatch):
        assert authenticator_from_env(None) is None
        monkeypatch.delenv("REPRO_TEST_AUTH_KEY", raising=False)
        with pytest.raises(ExperimentError, match="is not set"):
            authenticator_from_env("REPRO_TEST_AUTH_KEY")
        monkeypatch.setenv("REPRO_TEST_AUTH_KEY", "sekrit")
        auth = authenticator_from_env("REPRO_TEST_AUTH_KEY")
        assert auth.verify(auth.sign(b"x")) == b"x"


class TestEnvelopeEdges:
    def test_signing_is_deterministic_and_bound_to_the_key(self):
        payload = b'{"round": 2, "reports": [1, 0, 1]}'
        assert AUTH_KEY.sign(payload) == AUTH_KEY.sign(payload)
        assert AUTH_KEY.sign(payload) != OTHER_KEY.sign(payload)
        assert AUTH_KEY.sign(payload).endswith(payload)

    def test_empty_payload_round_trips(self):
        assert AUTH_KEY.verify(AUTH_KEY.sign(b"")) == b""

    def test_every_truncation_is_rejected(self):
        blob = AUTH_KEY.sign(b"payload-bytes")
        for length in range(len(blob)):
            with pytest.raises(AuthenticationError):
                AUTH_KEY.verify(blob[:length])

    def test_appended_bytes_are_rejected(self):
        blob = AUTH_KEY.sign(b"payload-bytes")
        with pytest.raises(AuthenticationError, match="does not verify"):
            AUTH_KEY.verify(blob + b"x")

    def test_envelope_of_another_payload_is_rejected(self):
        """A valid tag moved onto a different body must not verify."""
        header = AUTH_KEY.sign(b"first")[: -len(b"first")]
        with pytest.raises(AuthenticationError, match="does not verify"):
            AUTH_KEY.verify(header + b"other")

    @pytest.mark.parametrize("key", [b"", "a-str-key", None])
    def test_invalid_keys_are_refused(self, key):
        with pytest.raises(ExperimentError, match="non-empty bytes"):
            PayloadAuthenticator(key)

    def test_empty_environment_key_is_refused(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_AUTH_KEY", "")
        with pytest.raises(ExperimentError, match="is not set"):
            authenticator_from_env("REPRO_TEST_AUTH_KEY")
