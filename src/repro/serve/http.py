"""Minimal asyncio JSON/HTTP front-end for :class:`ClassificationService`.

Stdlib-only (``asyncio`` streams + hand-rolled HTTP/1.1 framing) so the
serving stack adds no dependencies beyond NumPy.  Endpoints:

``POST /classify``
    Body ``{"text": "..."}`` → one result, or ``{"texts": ["...", ...]}`` →
    ``{"results": [...]}``; an optional ``"source"`` string attributes the
    document(s) to a traffic source in the analytics plane (``GET /stats``).
    Rejections map onto status codes: 413 for oversized documents, 429 for
    backpressure, 503 while shutting down.  Every response (errors included,
    when the request reached admission) carries an ``X-Request-Id`` header
    naming its trace.
``POST /segment``
    Same body contract (including ``X-Request-Id``), but each result is a
    mixed-language segmentation: the document tiled into ``spans`` of
    ``{start, end, language, confidence}`` (see :mod:`repro.segment`).
``GET /healthz``
    Service topology and status (JSON), including the serving model's
    registry version and fingerprint, live queue depth / oldest-wait
    saturation signals, and per-worker replica liveness.
``GET /metrics``
    Full metrics snapshot as JSON; ``GET /metrics?format=text`` returns the
    Prometheus exposition (HELP/TYPE lines, per-stage latency histograms,
    spec-style ``quantile`` labels) instead.  Reports the active model
    version / fingerprint, ``model_swaps_total``, per-op cache hit/miss
    counters, and — when analytics is on — per-source language-mix and
    drift gauges.
``GET /stats``
    The traffic-analytics plane (:mod:`repro.analytics`): per-source
    language mix, confidence/quality summaries, the time-bucketed window
    ring and the drift verdicts (newest window vs baseline).
    ``?windows=0`` omits the window ring for a compact payload; a service
    started with analytics off answers ``{"enabled": false}``.
``GET /debug/traces``
    Retained exemplar traces, newest first (``?limit=N`` to cap), plus the
    tracer's sampling policy and counters — each trace is a request's full
    per-stage span waterfall (see :mod:`repro.obs`).
``POST /admin/swap``
    Body ``{"version": "v000004"}`` (or ``"latest"`` / an integer) — blue/green
    hot swap onto a published registry version via the service's
    :class:`~repro.registry.switch.ModelSwitch`.  409 when the service was
    started without a registry; 400 for unknown versions.

The framing intentionally supports only what the service needs: one request
per read, ``Content-Length`` bodies, keep-alive until the client closes.
"""

from __future__ import annotations

import asyncio
import json
import time
import traceback
from urllib.parse import parse_qs

from repro.core.classifier import ClassificationResult
from repro.segment.types import segmentation_to_json
from repro.serve.errors import (
    RequestTooLargeError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serve.service import ClassificationService

__all__ = ["serve_http", "result_to_json", "segmentation_to_json", "DEFAULT_MAX_BODY_BYTES"]

_MAX_HEADER_BYTES = 16 * 1024

#: largest accepted request body; bounds per-connection buffering *before* the
#: body is read (the service's per-document max_document_bytes check can only
#: run after parsing, which would be too late for a multi-gigabyte upload)
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def result_to_json(result: ClassificationResult) -> dict:
    """Wire form of one classification result.

    The ensemble's extra fields — calibrated confidence, abstain reason and
    the per-member vote breakdown — appear only when the result carries them,
    so single-backend responses keep their historical five-key shape.
    """
    wire = {
        "language": result.language,
        "match_counts": result.match_counts,
        "ngram_count": result.ngram_count,
        "margin": result.margin,
        "confidence": result.confidence,
    }
    if result.calibrated_confidence is not None:
        wire["calibrated_confidence"] = result.calibrated_confidence
    if result.abstain_reason is not None:
        wire["abstain_reason"] = result.abstain_reason
    if result.member_votes is not None:
        wire["member_votes"] = result.member_votes
    return wire


class _HttpError(Exception):
    def __init__(
        self,
        status: int,
        message: str,
        close_connection: bool = False,
        headers: dict | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        # set when the request body was left unread, so the connection's byte
        # stream is no longer aligned with request boundaries
        self.close_connection = close_connection
        # extra response headers (e.g. the Allow header RFC 9110 requires on 405)
        self.headers = headers or {}


def _encode_response(
    status: int, body: bytes, content_type: str, headers: dict | None = None
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    extra = "".join(f"{name}: {value}\r\n" for name, value in (headers or {}).items())
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        "Connection: keep-alive\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


def _json_response(status: int, payload: dict, headers: dict | None = None) -> bytes:
    return _encode_response(
        status, json.dumps(payload).encode("utf-8"), "application/json", headers
    )


def _request_id_headers(exc: Exception) -> dict | None:
    """``X-Request-Id`` for an error response, when the rejection carries one."""
    request_id = getattr(exc, "request_id", None)
    return {"X-Request-Id": request_id} if request_id else None


async def _read_request(reader: asyncio.StreamReader, max_body_bytes: int):
    """Parse one request; returns ``(method, path, query, body)`` or None at EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise _HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise _HttpError(400, "request head too large") from None
    if len(head) > _MAX_HEADER_BYTES:
        raise _HttpError(400, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise _HttpError(400, f"malformed request line {lines[0]!r}") from None
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        content_length = int(headers.get("content-length", "0"))
    except ValueError:
        raise _HttpError(400, "invalid Content-Length") from None
    if content_length < 0:
        raise _HttpError(400, "invalid Content-Length", close_connection=True)
    if content_length > max_body_bytes:
        # reject before buffering; the unread body forces a connection close
        raise _HttpError(
            413,
            f"request body of {content_length} bytes exceeds the "
            f"{max_body_bytes}-byte limit",
            close_connection=True,
        )
    body = await reader.readexactly(content_length) if content_length else b""
    path, _sep, query = target.partition("?")
    return method.upper(), path, query, body


def _parse_document_body(body: bytes, path: str):
    """Parse a ``{"text": ...}`` / ``{"texts": [...]}`` body; 400 on anything else.

    Either shape may carry an optional ``"source"`` (string) attributing the
    document(s) to a traffic source in the analytics plane (``GET /stats``).
    Every malformed shape — undecodable bytes, invalid JSON, and valid JSON
    that is not an object (list, string, number, ``null``) — maps to 400, so
    a client bug can never surface as a 500.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise _HttpError(400, f"invalid JSON body: {exc}") from None
    if not isinstance(payload, dict):
        raise _HttpError(
            400, f"body must be a JSON object, got {type(payload).__name__}"
        )
    source = payload.get("source")
    if source is not None and not isinstance(source, str):
        raise _HttpError(400, '"source" must be a string when present')
    if "texts" in payload:
        texts = payload["texts"]
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise _HttpError(400, '"texts" must be a list of strings')
        return None, texts, source
    text = payload.get("text")
    if not isinstance(text, str):
        raise _HttpError(
            400, f'body must contain "text" (string) or "texts" (list) for {path}'
        )
    return text, None, source


async def _dispatch(service: ClassificationService, method, path, query, body) -> bytes:
    if path == "/healthz":
        if method != "GET":
            raise _HttpError(405, "use GET for /healthz", headers={"Allow": "GET"})
        return _json_response(200, service.describe())
    if path == "/metrics":
        if method != "GET":
            raise _HttpError(405, "use GET for /metrics", headers={"Allow": "GET"})
        if "format=text" in query:
            text_page = service.metrics.render_text()
            if service.analytics is not None:
                text_page += service.analytics.render_text_gauges()
            return _encode_response(200, text_page.encode("utf-8"), "text/plain")
        payload = service.metrics.snapshot()
        if service.analytics is not None:
            payload["analytics"] = service.analytics.gauges()
        return _json_response(200, payload)
    if path == "/stats":
        if method != "GET":
            raise _HttpError(405, "use GET for /stats", headers={"Allow": "GET"})
        if service.analytics is None:
            return _json_response(200, {"enabled": False})
        include_windows = "windows=0" not in query
        return _json_response(
            200,
            {"enabled": True, **service.analytics.snapshot(include_windows)},
        )
    if path == "/admin/swap":
        if method != "POST":
            raise _HttpError(405, "use POST for /admin/swap", headers={"Allow": "POST"})
        if service.switch is None:
            raise _HttpError(
                409, "no model registry attached; start the service with --registry"
            )
        from repro.registry.store import RegistryError

        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "body must be a JSON object")
        spec = payload.get("version", "latest")
        if not isinstance(spec, (str, int)):
            raise _HttpError(400, '"version" must be a string or integer')
        try:
            report = await service.switch.swap_to(spec)
        except RegistryError as exc:
            raise _HttpError(400, str(exc)) from None
        except ServiceClosedError as exc:
            raise _HttpError(503, str(exc)) from None
        return _json_response(200, report)
    if path == "/debug/traces":
        if method != "GET":
            raise _HttpError(405, "use GET for /debug/traces", headers={"Allow": "GET"})
        limit = None
        params = parse_qs(query) if query else {}
        if "limit" in params:
            try:
                limit = int(params["limit"][-1])
            except ValueError:
                raise _HttpError(
                    400, f'"limit" must be an integer, got {params["limit"][-1]!r}'
                ) from None
            if limit < 0:
                raise _HttpError(400, '"limit" must be non-negative')
        return _json_response(
            200,
            {"traces": service.tracer.export(limit), "config": service.tracer.describe()},
        )
    if path in ("/classify", "/segment"):
        if method != "POST":
            raise _HttpError(405, f"use POST for {path}", headers={"Allow": "POST"})
        text, texts, source = _parse_document_body(body, path)
        to_json = result_to_json if path == "/classify" else segmentation_to_json
        try:
            if texts is not None:
                if path == "/classify":
                    pairs = await service.classify_many_traced(texts, source)
                else:
                    pairs = await service.segment_many_traced(texts)
                wire = {"results": [to_json(result) for result, _ctx in pairs]}
                contexts = [ctx for _result, ctx in pairs]
            else:
                if path == "/classify":
                    result, ctx = await service.classify_traced(text, source)
                else:
                    result, ctx = await service.segment_traced(text)
                wire = to_json(result)
                contexts = [ctx]
        except RequestTooLargeError as exc:
            raise _HttpError(413, str(exc), headers=_request_id_headers(exc)) from None
        except ServiceOverloadedError as exc:
            raise _HttpError(429, str(exc), headers=_request_id_headers(exc)) from None
        except ServiceClosedError as exc:
            raise _HttpError(503, str(exc), headers=_request_id_headers(exc)) from None
        serialize_start = time.perf_counter()
        encoded = json.dumps(wire).encode("utf-8")
        serialize_seconds = time.perf_counter() - serialize_start
        # The traces already closed when the service resolved them; appending
        # the serialize span post-close extends each waterfall (and the e2e
        # latency it tiles) by this request's share of the encoding cost.
        share = serialize_seconds / max(len(contexts), 1)
        for ctx in contexts:
            ctx.annotate("serialize", share)
        service.metrics.observe_stage("serialize", serialize_seconds)
        headers = {"X-Request-Id": contexts[0].trace_id} if contexts else None
        return _encode_response(200, encoded, "application/json", headers)
    raise _HttpError(404, f"no such endpoint {path!r}")


def make_connection_handler(
    service: ClassificationService, max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
):
    """The ``asyncio.start_server`` callback serving one client connection."""

    async def handle(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                must_close = False
                try:
                    request = await _read_request(reader, max_body_bytes)
                    if request is None:
                        break
                    response = await _dispatch(service, *request)
                except _HttpError as exc:
                    response = _json_response(exc.status, {"error": exc.message}, exc.headers)
                    must_close = exc.close_connection
                except Exception as exc:  # noqa: BLE001 - keep the connection alive
                    # the body never carries the exception text: it can leak
                    # internals (paths, model details) to any client
                    if service.logger is not None:
                        service.logger.event(
                            "http_internal_error",
                            error=f"{type(exc).__name__}: {exc}",
                            traceback=traceback.format_exc(),
                        )
                    response = _json_response(500, {"error": "internal error"})
                writer.write(response)
                await writer.drain()
                if must_close:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    return handle


async def serve_http(
    service: ClassificationService,
    host: str = "127.0.0.1",
    port: int = 8000,
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
) -> asyncio.base_events.Server:
    """Start the HTTP front-end; the service must already be running.

    Returns the ``asyncio`` server; callers own its lifecycle (``close()`` /
    ``wait_closed()``).  Pass ``port=0`` to bind an ephemeral port (tests).
    ``max_body_bytes`` bounds request-body buffering: larger uploads are
    rejected with 413 before the body is read.
    """
    return await asyncio.start_server(
        make_connection_handler(service, max_body_bytes), host, port
    )
