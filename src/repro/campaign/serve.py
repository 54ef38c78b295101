"""Read-only HTTP JSON API over a :class:`~repro.campaign.store.ResultStore`.

``repro serve --store DIR`` answers spec-hash and grid queries from the
store without ever simulating — the "results database" face of the
campaign subsystem.  Pure stdlib (:mod:`http.server`), safe to run against
a store that workers are still writing to (records are published
atomically).

Requests are answered one at a time on the thread that runs
``serve_forever``.  Every request is a short read of the store, and a
thread started per request costs more than the request itself: a newly
created thread queues behind whatever else is runnable on its CPU, so on a
busy host a share of the responses waited several milliseconds for their
handler to start.  A client that connects and then stalls is cut off after
``StoreRequestHandler.timeout`` seconds, so it cannot hold the server.

Endpoints (all ``GET``, all ``application/json``):

``/health``
    ``{"status": "ok", "records": N, "campaigns": M}``
``/records/<spec_hash>``
    The full stored :class:`~repro.experiment.session.RunRecord` payload.
``/query?workload=&mitigation=&nrh=&secure=&campaign=&limit=``
    Flat summary rows for every matching record (all filters optional).
    A non-integer ``nrh`` or ``limit``, a negative ``limit`` or a ``secure``
    that is not a boolean word is a 400.
``/campaigns``
    Checkpointed campaign ids.
``/campaigns/<id>``
    One campaign's checkpoint plus live completed/total progress.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, HTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.campaign.runner import status_from_state
from repro.campaign.store import ResultStore

_HASH_CHARS = set("0123456789abcdef")


def _parse_bool(value: str) -> Optional[bool]:
    lowered = value.strip().lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    return None


class StoreRequestHandler(BaseHTTPRequestHandler):
    """Routes GETs into store queries; every response is JSON."""

    server: "StoreHTTPServer"
    #: Seconds a connection may stay silent before it is dropped.
    timeout = 10

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _send(self, status: int, body: Dict[str, Any]) -> None:
        payload = json.dumps(body, sort_keys=True, indent=2).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    def log_message(self, format: str, *args) -> None:
        if not self.server.quiet:  # pragma: no cover - default is quiet
            super().log_message(format, *args)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        store = self.server.store
        try:
            if parts == ["health"]:
                self._send(
                    200,
                    {
                        "status": "ok",
                        "records": len(store),
                        "campaigns": len(store.list_campaigns()),
                    },
                )
            elif len(parts) == 2 and parts[0] == "records":
                self._get_record(parts[1])
            elif parts == ["query"]:
                self._get_query(parse_qs(url.query))
            elif parts == ["campaigns"]:
                self._send(200, {"campaigns": store.list_campaigns()})
            elif len(parts) == 2 and parts[0] == "campaigns":
                self._get_campaign(parts[1])
            else:
                self._error(404, f"no such endpoint: {url.path}")
        except Exception as exc:  # pragma: no cover - defensive boundary
            self._error(500, f"{type(exc).__name__}: {exc}")

    def _get_record(self, spec_hash: str) -> None:
        if len(spec_hash) != 64 or not set(spec_hash) <= _HASH_CHARS:
            self._error(400, "spec hash must be 64 lowercase hex characters")
            return
        record = self.server.store.get_record(spec_hash)
        if record is None:
            self._error(404, f"no record for spec hash {spec_hash}")
            return
        self._send(200, {"spec_hash": spec_hash, "record": record.to_dict()})

    def _get_query(self, query: Dict[str, list]) -> None:
        def single(name: str) -> Optional[str]:
            values = query.get(name)
            return values[-1] if values else None

        try:
            nrh = int(single("nrh")) if single("nrh") is not None else None
            limit = int(single("limit")) if single("limit") is not None else None
        except ValueError:
            self._error(400, "nrh and limit must be integers")
            return
        if limit is not None and limit < 0:
            self._error(400, "limit must not be negative")
            return
        secure_text = single("secure")
        secure = _parse_bool(secure_text) if secure_text else None
        if secure_text and secure is None:
            self._error(400, "secure must be one of 1, true, yes, 0, false, no")
            return
        rows = self.server.store.query(
            workload=single("workload"),
            mitigation=single("mitigation"),
            nrh=nrh,
            secure=secure,
            campaign=single("campaign"),
            limit=limit,
        )
        self._send(200, {"count": len(rows), "results": rows})

    def _get_campaign(self, campaign_id: str) -> None:
        store = self.server.store
        state = store.load_campaign(campaign_id)
        if state is None:
            # Allow unambiguous id prefixes (the CLI prints 12-char ids).
            matches = [c for c in store.list_campaigns() if c.startswith(campaign_id)]
            if len(matches) == 1:
                state = store.load_campaign(matches[0])
        if state is None:
            self._error(404, f"no campaign {campaign_id}")
            return
        status = status_from_state(store, state)
        self._send(
            200,
            {
                "campaign_id": status.campaign_id,
                "name": status.name,
                "total": status.total,
                "completed": status.completed,
                "finished": status.finished,
                "state": state,
            },
        )


class StoreHTTPServer(HTTPServer):
    """HTTPServer carrying the store for its handler."""

    def __init__(
        self,
        address: Tuple[str, int],
        store: ResultStore,
        quiet: bool = True,
    ) -> None:
        super().__init__(address, StoreRequestHandler)
        self.store = store
        self.quiet = quiet


def make_server(
    store: ResultStore, host: str = "127.0.0.1", port: int = 0, quiet: bool = True
) -> StoreHTTPServer:
    """Bind a server on ``host:port`` (``port=0`` picks a free one).

    The caller drives it: ``serve_forever()`` inline, or in a thread for
    tests (``server.server_address`` reports the bound port).
    """
    return StoreHTTPServer((host, port), store, quiet=quiet)


__all__ = ["StoreHTTPServer", "StoreRequestHandler", "make_server"]
