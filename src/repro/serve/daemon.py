"""The HTTP face of the verification service (stdlib only).

A thin JSON-over-HTTP/1.1 layer on :class:`~repro.serve.manager.JobManager`
— every route delegates; no verification logic lives here.

Routes (all JSON unless noted)::

    GET  /v1/health             liveness + version
    GET  /v1/stats              counters, queue depths, cache stats
    GET  /v1/jobs               every known job (view summaries)
    POST /v1/jobs               submit {"kind": ..., ...};
                                body may add "wait": true [, "timeout": s]
    GET  /v1/jobs/<id>          one job's view
    GET  /v1/jobs/<id>/events   NDJSON event stream (see below)
    GET  /v1/jobs/<id>/report   the finished job's run-report payload
    POST /v1/drain              begin graceful drain; body may set
                                {"timeout": seconds}

The event stream is newline-delimited JSON (``application/x-ndjson``):
the daemon tails the job's ``events.jsonl`` — parent lifecycle events
plus the computation's live engine events — and keeps the connection
open until the job is terminal (pass ``?follow=0`` for a snapshot).
Served with ``Connection: close``, so plain ``curl`` consumes it.

Error mapping: a malformed spec is 400, an unknown job 404, a
submission during drain 503, anything unexpected 500.  A
``Content-Length`` that is not a non-negative integer is 400 and one
over :data:`MAX_BODY_BYTES` is 413, both answered before any of the
body is read, on a connection the daemon then closes.  Every JSON
response carries ``repro_version`` (the service-response half of the
version single-sourcing satellite).

Responses go out with ``TCP_NODELAY``: the handler writes headers and
body in two sends, and with Nagle's algorithm on, the body of a
response on a kept-alive connection would wait for the client's
delayed ACK of the headers (about 40 ms on Linux).

The server itself is a ``ThreadingHTTPServer`` driven by
:func:`serve_until` — a ``handle_request()`` polling loop rather than
``serve_forever()``, because the drain trigger is a SIGTERM handler
setting an event, and calling ``shutdown()`` from a signal handler
deadlocks (it joins the very thread the handler interrupted).
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from .jobs import JobSpecError
from .manager import DrainingError, JobManager

__all__ = ["VerificationServer", "serve_until"]

#: How often the event-stream tail re-polls the file and the serve loop
#: re-checks its stop event.  Small enough to feel live, large enough
#: to stay off the profile.
_POLL_SECONDS = 0.05

#: Largest request body the daemon reads; a job spec is under 1 KB.
MAX_BODY_BYTES = 1 << 20


class _BodyError(Exception):
    """A request body the daemon refuses before reading it."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class VerificationServer(ThreadingHTTPServer):
    """One listening socket over one :class:`JobManager`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 manager: JobManager) -> None:
        super().__init__(address, _Handler)
        self.manager = manager


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: VerificationServer

    # -- plumbing ---------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        pass  # the daemon narrates through events, not the access log

    def _send_json(self, status: int, payload: Dict[str, Any], *,
                   close: bool = False) -> None:
        payload = dict(payload)
        payload.setdefault("repro_version", __version__)
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Any:
        declared = (self.headers.get("Content-Length") or "0").strip()
        if not (declared.isascii() and declared.isdigit()):
            raise _BodyError(400, f"bad Content-Length {declared!r}")
        try:
            length = int(declared)
        except ValueError:  # too many digits for int(): far over the cap
            length = MAX_BODY_BYTES + 1
        if length > MAX_BODY_BYTES:
            raise _BodyError(413, f"request body exceeds the "
                             f"{MAX_BODY_BYTES}-byte limit")
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise JobSpecError("request body is not valid JSON")

    # -- routing ----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            self._route_get()
        except BrokenPipeError:
            pass
        except Exception as exc:  # pragma: no cover - defensive
            self._safe_error(500, f"internal error: {exc!r}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            self._route_post()
        except _BodyError as exc:
            # The unread body is still on the wire: end the connection.
            self._safe_error(exc.status, str(exc), close=True)
        except JobSpecError as exc:
            self._safe_error(400, str(exc))
        except DrainingError as exc:
            self._safe_error(503, str(exc))
        except BrokenPipeError:
            pass
        except Exception as exc:  # pragma: no cover - defensive
            self._safe_error(500, f"internal error: {exc!r}")

    def _safe_error(self, status: int, message: str, *,
                    close: bool = False) -> None:
        try:
            self._send_json(status, {"error": message}, close=close)
        except Exception:  # pragma: no cover - client already gone
            pass

    def _route_get(self) -> None:
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        manager = self.server.manager
        if parts == ["v1", "health"]:
            stats = manager.stats()
            self._send_json(200, {
                "ok": True,
                "service": "repro-serve",
                "draining": stats["draining"],
            })
            return
        if parts == ["v1", "stats"]:
            self._send_json(200, manager.stats())
            return
        if parts == ["v1", "jobs"]:
            self._send_json(200, {"jobs": manager.jobs()})
            return
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            view = manager.job(parts[2])
            if view is None:
                self._safe_error(404, f"no such job: {parts[2]}")
                return
            self._send_json(200, {"job": view})
            return
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"]:
            job_id, leaf = parts[2], parts[3]
            if manager.job(job_id) is None:
                self._safe_error(404, f"no such job: {job_id}")
                return
            if leaf == "report":
                report = manager.report(job_id)
                if report is None:
                    self._safe_error(409, f"job {job_id} has no report "
                                     "(not finished, or it failed)")
                    return
                self._send_json(200, {"report": report})
                return
            if leaf == "events":
                query = parse_qs(split.query)
                follow = query.get("follow", ["1"])[0] not in ("0", "no")
                self._stream_events(job_id, follow=follow)
                return
        self._safe_error(404, f"no such route: GET {split.path}")

    def _route_post(self) -> None:
        parts = [p for p in urlsplit(self.path).path.split("/") if p]
        manager = self.server.manager
        if parts == ["v1", "jobs"]:
            body = self._read_body()
            if not isinstance(body, dict):
                raise JobSpecError("the submission body must be a "
                                   "JSON object")
            wait = bool(body.pop("wait", False))
            timeout = body.pop("timeout", None)
            view = manager.submit(body)
            if wait:
                view = manager.wait(view["job_id"], timeout=timeout) or view
            self._send_json(200, {"job": view})
            return
        if parts == ["v1", "drain"]:
            body = self._read_body()
            timeout = body.get("timeout") if isinstance(body, dict) else None
            summary = manager.drain(timeout=timeout)
            self._send_json(200, summary)
            return
        self._safe_error(404, f"no such route: POST {self.path}")

    # -- the event stream -------------------------------------------------

    def _stream_events(self, job_id: str, *, follow: bool) -> None:
        """Tail the job's events.jsonl as NDJSON until it is terminal.

        The file is append-only (parent lifecycle events interleaved
        with the worker's live engine events), so a plain byte tail is
        a faithful stream.  Ends after the line written by the final
        ``job_finished`` event — terminal status is checked *before*
        reading so the closing events always flush to the client.
        """
        path = self.server.manager.events_path(job_id)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        offset = 0
        while True:
            terminal = self.server.manager.is_terminal(job_id)
            if path is not None and os.path.exists(path):
                with open(path, "rb") as fh:
                    fh.seek(offset)
                    chunk = fh.read()
                if chunk:
                    # Only ship whole lines; a partially-written event
                    # stays buffered until its newline lands.
                    cut = chunk.rfind(b"\n")
                    if cut >= 0:
                        self.wfile.write(chunk[:cut + 1])
                        self.wfile.flush()
                        offset += cut + 1
            if terminal or not follow:
                break
            time.sleep(_POLL_SECONDS)
        self.close_connection = True


def serve_until(server: VerificationServer, stop: threading.Event,
                poll_seconds: float = 0.2) -> None:
    """Serve requests until ``stop`` is set (signal-handler friendly).

    Each request is handled on its own thread (``ThreadingHTTPServer``),
    so long-lived event streams do not block this accept loop.
    """
    server.timeout = poll_seconds
    while not stop.is_set():
        server.handle_request()
