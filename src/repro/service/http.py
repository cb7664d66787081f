"""Minimal asyncio HTTP/1.1 server and client (stdlib only).

The live ingestion service needs an HTTP front door but the repository rule
is *no new dependencies*, so this module implements the small slice of
HTTP/1.1 the service actually uses on top of ``asyncio`` streams:

* request line + headers + ``Content-Length`` bodies (no chunked encoding,
  no pipelining beyond sequential keep-alive),
* keep-alive connections with a 30-second idle timeout,
* bounded request sizes: 16 KiB per request or header line and 64 headers
  (``400`` beyond), 8 MiB per body (``413`` before the payload is read into
  memory),
* a handler contract of ``async (HttpRequest) -> HttpResponse`` — routing
  and semantics live in :mod:`repro.service.ingest`, transport mechanics
  live here.

:class:`HttpClient` is the matching keep-alive client used by the load
generator and the tests; it speaks to any HTTP/1.1 server but only needs
the same subset.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

from ..exceptions import ReproError

__all__ = ["HttpError", "HttpRequest", "HttpResponse", "AsyncHttpServer", "HttpClient"]

_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_MAX_LINE_BYTES = 16 * 1024
_MAX_HEADERS = 64
_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Seconds a kept-alive connection may sit idle (or stall mid-request).
_KEEPALIVE_TIMEOUT = 30.0


class HttpError(ReproError):
    """Malformed traffic or protocol-level failure on the HTTP layer."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HttpRequest:
    """One parsed request."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes

    def json(self) -> object:
        """The body parsed as JSON (raises :class:`HttpError` 400 if not)."""
        try:
            return json.loads(self.body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise HttpError(400, f"request body is not valid JSON: {error}") from None


@dataclass
class HttpResponse:
    """One response; ``Content-Length`` and framing are added by the server."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def json(cls, payload: object, status: int = 200) -> "HttpResponse":
        body = (json.dumps(payload) + "\n").encode("utf-8")
        return cls(status=status, body=body)

    @classmethod
    def text(
        cls,
        payload: str,
        status: int = 200,
        content_type: str = "text/plain; version=0.0.4; charset=utf-8",
    ) -> "HttpResponse":
        return cls(
            status=status, body=payload.encode("utf-8"), content_type=content_type
        )

    @classmethod
    def error(cls, status: int, message: str) -> "HttpResponse":
        return cls.json({"error": message}, status=status)

    def parsed_json(self) -> object:
        """Client-side helper: the body parsed as JSON."""
        return json.loads(self.body.decode("utf-8"))


def _render_response(response: HttpResponse, keep_alive: bool) -> bytes:
    reason = _REASONS.get(response.status, "Unknown")
    lines = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in response.headers)
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + response.body


async def _read_limited_line(reader: asyncio.StreamReader) -> bytes:
    try:
        line = await asyncio.wait_for(reader.readline(), _KEEPALIVE_TIMEOUT)
    except ValueError:  # longer than the stream's 64 KiB buffer limit
        raise HttpError(400, "header line too long") from None
    if len(line) > _MAX_LINE_BYTES:
        raise HttpError(400, "header line too long")
    return line


class AsyncHttpServer:
    """An asyncio HTTP/1.1 server delegating to one async handler.

    The handler receives an :class:`HttpRequest` and returns an
    :class:`HttpResponse`; raising :class:`HttpError` maps to its status,
    any other exception answers ``500`` (the connection survives either).
    """

    def __init__(
        self,
        handler: Callable[[HttpRequest], Awaitable[HttpResponse]],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._handler = handler
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._address: Optional[Tuple[str, int]] = None

    @property
    def address(self) -> Tuple[str, int]:
        if self._address is None:
            raise ReproError("the HTTP server is not started")
        return self._address

    async def start(self) -> Tuple[str, int]:
        self._server = await asyncio.start_server(
            self._serve_connection, self._host, self._port
        )
        sockname = self._server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        return self._address

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except asyncio.TimeoutError:
                    break  # idle keep-alive connection
                except HttpError as error:
                    writer.write(
                        _render_response(
                            HttpResponse.error(error.status, error.message),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break  # clean EOF between requests
                try:
                    response = await self._handler(request)
                except HttpError as error:
                    response = HttpResponse.error(error.status, error.message)
                except Exception as error:  # noqa: BLE001 - keep the server up
                    response = HttpResponse.error(
                        500, f"internal error: {type(error).__name__}: {error}"
                    )
                keep_alive = (
                    request.headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                writer.write(_render_response(response, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - platform noise
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[HttpRequest]:
        line = await _read_limited_line(reader)
        if not line:
            return None
        parts = line.decode("latin-1").rstrip("\r\n").split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise HttpError(400, f"malformed request line: {line!r}")
        method, target, _version = parts
        split = urlsplit(target)
        path = unquote(split.path)
        query = dict(parse_qsl(split.query))

        headers: Dict[str, str] = {}
        for _ in range(_MAX_HEADERS + 1):
            header_line = await _read_limited_line(reader)
            if header_line in (b"\r\n", b"\n", b""):
                break
            name, separator, value = header_line.decode("latin-1").partition(":")
            if not separator:
                raise HttpError(400, f"malformed header line: {header_line!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise HttpError(400, "too many request headers")

        body = b""
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                raise HttpError(400, "invalid Content-Length header") from None
            if length < 0:
                raise HttpError(400, "invalid Content-Length header")
            if length > _MAX_BODY_BYTES:
                raise HttpError(
                    413,
                    f"request body of {length} bytes exceeds the "
                    f"{_MAX_BODY_BYTES}-byte limit",
                )
            if length:
                body = await asyncio.wait_for(
                    reader.readexactly(length), _KEEPALIVE_TIMEOUT
                )
        return HttpRequest(
            method=method.upper(), path=path, query=query, headers=headers, body=body
        )


@dataclass
class _ClientConnection:
    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter


class HttpClient:
    """A keep-alive HTTP/1.1 client for one ``host:port`` endpoint.

    Used by the load generator, the quickstart example and the tests.  One
    TCP connection is reused across requests; a dropped connection is
    re-established transparently on the next request.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._connection: Optional[_ClientConnection] = None

    async def _connect(self) -> _ClientConnection:
        if self._connection is None:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self.timeout
            )
            self._connection = _ClientConnection(reader, writer)
        return self._connection

    async def close(self) -> None:
        if self._connection is not None:
            self._connection.writer.close()
            try:
                await self._connection.writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - platform noise
                pass
            self._connection = None

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers: Tuple[Tuple[str, str], ...] = (),
        content_type: str = "application/json",
    ) -> HttpResponse:
        """Issue one request; retries once on a stale pooled connection."""
        try:
            return await self._request_once(method, path, body, headers, content_type)
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            await self.close()
            return await self._request_once(method, path, body, headers, content_type)

    async def _read_line(self, reader: asyncio.StreamReader) -> bytes:
        try:
            return await asyncio.wait_for(reader.readline(), self.timeout)
        except ValueError:  # longer than the stream's 64 KiB buffer limit
            raise HttpError(502, "response line too long") from None

    async def _request_once(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Tuple[Tuple[str, str], ...],
        content_type: str,
    ) -> HttpResponse:
        connection = await self._connect()
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
        ]
        lines.extend(f"{name}: {value}" for name, value in headers)
        connection.writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        )
        await connection.writer.drain()

        status_line = await self._read_line(connection.reader)
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("latin-1").split(" ", 2)
        if (
            len(parts) < 2
            or not parts[0].startswith("HTTP/1.")
            or not parts[1].isdecimal()
        ):
            raise HttpError(502, f"malformed status line: {status_line!r}")
        status = int(parts[1])

        response_headers = []
        content_length = 0
        keep_alive = True
        response_type = "application/octet-stream"
        while True:
            header_line = await self._read_line(connection.reader)
            if header_line in (b"\r\n", b"\n", b""):
                break
            name, _, value = header_line.decode("latin-1").partition(":")
            name, value = name.strip(), value.strip()
            response_headers.append((name, value))
            lowered = name.lower()
            if lowered == "content-length":
                try:
                    content_length = int(value)
                except ValueError:
                    raise HttpError(
                        502, f"invalid Content-Length header: {value!r}"
                    ) from None
            elif lowered == "connection" and value.lower() == "close":
                keep_alive = False
            elif lowered == "content-type":
                response_type = value

        payload = b""
        if content_length:
            payload = await asyncio.wait_for(
                connection.reader.readexactly(content_length), self.timeout
            )
        if not keep_alive:
            await self.close()
        return HttpResponse(
            status=status,
            body=payload,
            content_type=response_type,
            headers=tuple(response_headers),
        )
