"""Stdlib-only threaded HTTP JSON API in front of a LinkingService.

The API is versioned under ``/v1`` (JSON unless noted).  Consolidated
route reference:

=======  ======================  ==========================================
Method   Route                   Purpose
=======  ======================  ==========================================
POST     ``/v1/link``            Link queries (optionally tenant-scoped)
POST     ``/v1/map``             Project a concept across tenant ontologies
GET      ``/healthz``            Liveness (canonical unversioned)
GET      ``/readyz``             Readiness (canonical unversioned)
GET      ``/v1/metrics``         Service snapshot / Prometheus exposition
GET      ``/v1/traces``          Sampled span traces from the ring buffer
GET      ``/v1/admin/tenants``   Tenant registry state (multi-tenant only)
GET      ``/v1/admin/lifecycle`` Model-lifecycle status
GET      ``/v1/admin/workers``   Multi-process tier introspection
POST     ``/v1/admin/swap``      Drive the blue/green artifact swapper
=======  ======================  ==========================================

* ``POST /v1/link`` — body ``{"query": "..."}`` or ``{"queries":
  [...]}`` with optional ``"k"``, ``"top"``, and ``"tenant"``;
  responds ``{"results": [...], "request_id": ..., "api_version":
  ...}`` where each result carries the ranked concepts, applied
  rewrites, and the per-query OR/CR/ED/RT timing breakdown (Figure
  11's decomposition).  An ``X-Request-ID`` request header is
  honoured (else one is generated); it is echoed as a response
  header, embedded in the payload, stamped on every correlated JSON
  log line, and is the key for finding the request's trace.  On a
  multi-tenant deployment the tenant is named by the body ``tenant``
  field and/or the ``X-Tenant`` header (they must agree; naming none
  routes to the configured default tenant), and the response carries
  the resolved ``"tenant"``.  Single-tenant deployments with no
  tenant named answer **bit-identically** to the pre-tenancy server.
* ``POST /v1/map`` — cross-ontology projection: body ``{"query":
  ..., "source": tenant, "target": tenant}`` links the query in the
  source tenant's ontology and projects the top concept into the
  target tenant's via shared-alias anchors (``{"cid": ...}`` instead
  of ``query`` projects an already-linked concept); optional ``"k"``
  and ``"limit"``.  404 ``mapping_disabled`` on single-tenant
  deployments.
* ``GET /healthz`` (alias ``/v1/healthz``) — liveness; 200 while the
  process can serve.
* ``GET /readyz`` (alias ``/v1/readyz``) — readiness; 503 until
  warm-up finishes, then 200.
* ``GET /v1/metrics`` — the service snapshot (counters, latency
  histograms with p50/p95/p99, cache, batcher, and engine
  statistics; plus the per-tenant registry view on multi-tenant
  deployments); ``?format=prometheus`` (or an ``Accept: text/plain``
  header) returns Prometheus text exposition instead, with
  ``tenant``-labeled series when tenants are declared.
* ``GET /v1/traces`` — recent sampled span traces from the ring
  buffer (``?limit=N`` bounds the reply, ``?request_id=...`` fetches
  one).
* ``GET /v1/admin/tenants`` — the tenant registry: per-tenant
  load/evict state, accounted bytes, quota windows, request counts,
  and SLO windows; 404 ``tenants_disabled`` on single-tenant
  deployments.  v1-only.
* ``GET /v1/admin/lifecycle`` — model-lifecycle status (uncertainty
  pool fill, swap state, shadow report, rollback reason codes); 404
  ``lifecycle_disabled`` when no controller is attached.  On
  multi-tenant deployments ``?tenant=NAME`` targets one tenant's
  controller.
* ``GET /v1/admin/workers`` — multi-process tier introspection: the
  per-worker slot table (pid, readiness, job/query/error/respawn/
  degrade counts, busy seconds), the front-end's queue/shed/fusion
  counters, and the rolling SLO window; 404 ``workers_disabled`` on
  the single-process tier.  v1-only.
* ``POST /v1/admin/swap`` — body ``{"action": "promote"}`` (optional
  ``"force": true``) or ``{"action": "rollback"}``; drives the
  blue/green swapper.  Promotion blocked by a quality gate answers 409
  ``swap_blocked`` with the shadow report; rollback with nothing to
  roll back answers 409 ``no_candidate``.  v1-only (no legacy alias).
  On multi-tenant deployments a body ``"tenant"`` targets that
  tenant's controller.

**Retired routes.**  The pre-versioning routes ``/link``,
``/metrics``, and ``/traces`` carried ``Deprecation: true`` plus a
``Link: rel="successor-version"`` header for two releases; they now
answer **410 Gone** with the standard error envelope (code ``gone``)
and the same ``Link`` header naming the ``/v1`` successor.  Migration:
prepend ``/v1`` to the path — request and response bodies are
unchanged.  ``/healthz`` and ``/readyz`` remain canonical unversioned
(load-balancer convention).

Errors share one envelope across every endpoint: ``{"error": {"code":
..., "message": ..., "request_id": ...}}`` with 400 for bad requests,
404 for unknown routes/traces/tenants (code ``unknown_tenant``), 410
for retired routes (code ``gone``), 429 when a tenant's quota window
is exhausted (code ``quota_exceeded``, with a ``Retry-After``
header), 503 before readiness (code ``not_ready``) or under load
shedding (code ``shed``), 504 on request timeout, and 500 for
anything unexpected.  One OS thread per connection
(``ThreadingHTTPServer``) is plenty here because the model-bound work
is serialised by the batcher anyway; threads only overlap on parsing
and I/O.
"""

from __future__ import annotations

import json
import math
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.api import API_VERSION
from repro.core.linker import LinkResult
from repro.obs import trace
from repro.obs.prom import (
    render_prometheus,
    snapshot_gauges,
    tenant_series,
    worker_series,
)
from repro.serving.frontend import ShedError
from repro.serving.service import LinkingService, ServiceNotReadyError
from repro.tenancy.errors import QuotaExceededError, UnknownTenantError
from repro.utils.errors import ReproError
from repro.utils.logging import get_logger

LOGGER = get_logger("serving.server")

MAX_BODY_BYTES = 1 << 20  # 1 MiB of JSON is already thousands of queries
MAX_QUERIES_PER_REQUEST = 256

#: URL prefix of the current stable HTTP surface.
V1_PREFIX = "/v1"


class BadRequestError(ValueError):
    """Client-side request problem, reported as HTTP 400."""


def error_envelope(
    code: str, message: str, request_id: str
) -> Dict[str, Any]:
    """The one error shape every endpoint answers with.

    ``code`` is a stable, machine-matchable identifier (``bad_request``,
    ``not_ready``, ``timeout``, ``not_found``, ``trace_not_found``,
    ``internal``, or a ``ReproError`` class name); ``message`` is
    human-facing prose; ``request_id`` correlates the failure with logs
    and traces.
    """
    return {
        "error": {
            "code": code,
            "message": message,
            "request_id": request_id,
        }
    }


def result_to_json(
    result: LinkResult, ontology: Any, top: Optional[int] = None
) -> Dict[str, Any]:
    """Serialise one LinkResult against the ontology that produced it.

    ``ontology`` is passed explicitly (rather than read off the
    server's service) because on a multi-tenant deployment each result
    renders against its own tenant's ontology.  Degraded results
    (Phase I keyword ranking only) report ``null`` for
    ``log_prob``/``loss``: ``-inf`` is not valid strict JSON, and a
    sentinel number would be indistinguishable from a real score.
    """
    ranked = result.ranked if top is None else result.ranked[:top]
    return {
        "query": result.query,
        "tokens": list(result.tokens),
        "rewritten_tokens": list(result.rewritten_tokens),
        "rewrites": [
            {"original": rewrite.original, "replacement": rewrite.replacement}
            for rewrite in result.rewrites
        ],
        "ranked": [
            {
                "cid": concept.cid,
                "log_prob": (
                    concept.log_prob
                    if math.isfinite(concept.log_prob)
                    else None
                ),
                "loss": concept.loss if math.isfinite(concept.loss) else None,
                "keyword_score": concept.keyword_score,
                "description": ontology.get(concept.cid).description,
            }
            for concept in ranked
        ],
        "timing": result.timing.as_dict(),
        "degraded": result.degraded,
        "degraded_reason": result.degraded_reason,
    }


def _parse_tenant_field(payload: Dict[str, Any]) -> Optional[str]:
    """The body's optional ``tenant`` field (None when absent)."""
    tenant = payload.get("tenant")
    if tenant is None:
        return None
    if not isinstance(tenant, str) or not tenant.strip():
        raise BadRequestError("'tenant' must be a non-empty string")
    return tenant.strip()


def _parse_link_body(payload: Any) -> Tuple[list, Optional[int], Optional[int]]:
    """Validate a /link body; returns ``(queries, k, top)``."""
    if not isinstance(payload, dict):
        raise BadRequestError("request body must be a JSON object")
    has_query = "query" in payload
    has_queries = "queries" in payload
    if has_query == has_queries:
        raise BadRequestError(
            "provide exactly one of 'query' (string) or 'queries' (list)"
        )
    if has_query:
        query = payload["query"]
        if not isinstance(query, str) or not query.strip():
            raise BadRequestError("'query' must be a non-empty string")
        queries = [query]
    else:
        queries = payload["queries"]
        if not isinstance(queries, list) or not queries:
            raise BadRequestError("'queries' must be a non-empty list")
        if len(queries) > MAX_QUERIES_PER_REQUEST:
            raise BadRequestError(
                f"at most {MAX_QUERIES_PER_REQUEST} queries per request"
            )
        if not all(isinstance(q, str) and q.strip() for q in queries):
            raise BadRequestError("'queries' entries must be non-empty strings")
    k = payload.get("k")
    if k is not None and (not isinstance(k, int) or isinstance(k, bool) or k < 1):
        raise BadRequestError("'k' must be a positive integer")
    top = payload.get("top")
    if top is not None and (
        not isinstance(top, int) or isinstance(top, bool) or top < 1
    ):
        raise BadRequestError("'top' must be a positive integer")
    return queries, k, top


class _LinkRequestHandler(BaseHTTPRequestHandler):
    server: "LinkingHTTPServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing -----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        LOGGER.debug("%s %s", self.address_string(), format % args)

    def _respond(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        # Every JSON response self-describes its API version, so a
        # client (or a capture in a bug report) is never ambiguous
        # about which surface produced it.
        payload.setdefault("api_version", API_VERSION)
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _respond_text(
        self,
        status: int,
        text: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _request_id(self) -> str:
        """This request's correlation id (header-supplied or generated)."""
        return (
            self.headers.get("X-Request-ID") or ""
        ).strip() or trace.new_request_id()

    def _respond_error(
        self,
        status: int,
        code: str,
        message: str,
        request_id: Optional[str] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        # Every error echoes X-Request-ID, like success responses do:
        # a shed or init-failure 503 is exactly the response a caller
        # most needs to correlate with logs and traces.
        rid = request_id or self._request_id()
        merged = {"X-Request-ID": rid}
        if headers:
            merged.update(headers)
        self._respond(
            status, error_envelope(code, message, rid), headers=merged
        )

    def _route(self) -> Tuple[str, Dict[str, list], bool]:
        """``(normalised path, query params, legacy?)``.

        The ``/v1`` prefix is stripped so one dispatch serves both
        surfaces; ``legacy`` marks a pre-versioning path, which answers
        identically but carries deprecation headers.
        """
        parts = urlsplit(self.path)
        path = parts.path
        params = parse_qs(parts.query)
        if path == V1_PREFIX or path.startswith(V1_PREFIX + "/"):
            return path[len(V1_PREFIX):] or "/", params, False
        return path, params, True

    def _respond_gone(self, path: str) -> None:
        """410 for a retired pre-versioning route, naming the successor.

        These routes carried ``Deprecation: true`` for two releases;
        the tombstone keeps the ``Link: rel="successor-version"``
        header so unmigrated clients still learn the ``/v1`` path from
        the failure itself.
        """
        successor = f"{V1_PREFIX}{path}"
        self._respond_error(
            410,
            "gone",
            f"{path} was retired; use {successor} (same request and "
            "response bodies)",
            headers={"Link": f'<{successor}>; rel="successor-version"'},
        )

    def _tenant_header(self) -> Optional[str]:
        """The ``X-Tenant`` request header (None when absent/blank)."""
        value = (self.headers.get("X-Tenant") or "").strip()
        return value or None

    # -- GET ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service
        path, params, legacy = self._route()
        # Health endpoints are canonical unversioned (load-balancer
        # convention); /metrics and /traces moved under /v1, and their
        # bare pre-versioning forms are retired (410 Gone).
        if legacy and path in ("/metrics", "/traces"):
            self._respond_gone(path)
            return
        extra: Optional[Dict[str, str]] = None
        if path == "/healthz":
            if service.healthy:
                self._respond(200, {"status": "ok"})
            else:
                self._respond_error(503, "unhealthy", "service is stopping")
        elif path == "/readyz":
            if service.ready:
                self._respond(200, {"status": "ready"})
            else:
                self._respond_error(
                    503, "not_ready", "warm-up has not completed"
                )
        elif path == "/metrics":
            accepts = self.headers.get("Accept", "")
            wants_text = (
                params.get("format", [""])[0] == "prometheus"
                or "text/plain" in accepts
            )
            snapshot = service.snapshot()
            if wants_text:
                self._respond_text(
                    200,
                    render_prometheus(
                        service.metrics,
                        gauges=snapshot_gauges(snapshot),
                        labeled=[
                            *worker_series(snapshot),
                            *tenant_series(snapshot),
                        ],
                    ),
                    headers=extra,
                )
            else:
                self._respond(200, snapshot, headers=extra)
        elif path == "/traces":
            self._respond_traces(params, extra)
        elif path == "/admin/workers" and not legacy:
            snapshot = service.snapshot()
            frontend = snapshot.get("frontend")
            if frontend is None:
                self._respond_error(
                    404,
                    "workers_disabled",
                    "this service runs the single-process tier (workers=0)",
                )
            else:
                self._respond(
                    200,
                    {
                        "workers": frontend.get("workers", []),
                        "frontend": {
                            key: value
                            for key, value in frontend.items()
                            if key != "workers"
                        },
                        "slo": snapshot.get("slo"),
                    },
                )
        elif path == "/admin/tenants" and not legacy:
            if not getattr(service, "multi_tenant", False):
                self._respond_error(
                    404,
                    "tenants_disabled",
                    "this deployment is single-tenant (no tenants section)",
                )
            else:
                self._respond(200, service.registry.snapshot())
        elif path == "/admin/lifecycle" and not legacy:
            tenant_param = params.get("tenant", [None])[0]
            if getattr(service, "multi_tenant", False):
                try:
                    lifecycle = service.lifecycle_for(tenant_param)
                except UnknownTenantError as error:
                    self._respond_error(404, "unknown_tenant", str(error))
                    return
            elif tenant_param is not None:
                self._respond_error(
                    404,
                    "unknown_tenant",
                    "this deployment is single-tenant; drop the 'tenant' "
                    "parameter",
                )
                return
            else:
                lifecycle = getattr(service, "lifecycle", None)
            if lifecycle is None:
                self._respond_error(
                    404,
                    "lifecycle_disabled",
                    "no lifecycle controller is attached to this service",
                )
            else:
                self._respond(200, {"lifecycle": lifecycle.status()})
        else:
            self._respond_error(404, "not_found", f"no route for {self.path}")

    def _respond_traces(
        self, params: Dict[str, list], headers: Optional[Dict[str, str]]
    ) -> None:
        tracer = self.server.service.tracer
        request_id = params.get("request_id", [None])[0]
        if request_id:
            found = tracer.find(request_id)
            if found is None:
                self._respond_error(
                    404,
                    "trace_not_found",
                    f"no retained trace for request {request_id!r} "
                    "(evicted from the ring buffer, or never sampled)",
                    headers=headers,
                )
                return
            self._respond(
                200,
                {"traces": [found], "stats": tracer.stats()},
                headers=headers,
            )
            return
        limit_raw = params.get("limit", [None])[0]
        limit: Optional[int] = None
        if limit_raw is not None:
            try:
                limit = int(limit_raw)
            except ValueError:
                self._respond_error(
                    400,
                    "bad_request",
                    "'limit' must be an integer",
                    headers=headers,
                )
                return
        self._respond(
            200,
            {"traces": tracer.traces(limit=limit), "stats": tracer.stats()},
            headers=headers,
        )

    # -- POST ---------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        path, _, legacy = self._route()
        if legacy:
            if path == "/link":
                self._respond_gone(path)
            else:
                self._respond_error(
                    404, "not_found", f"no route for {self.path}"
                )
            return
        if path == "/admin/swap":
            self._handle_swap()
            return
        if path == "/map":
            self._handle_map()
            return
        if path != "/link":
            self._respond_error(404, "not_found", f"no route for {self.path}")
            return
        # The request ID exists whether or not this trace is sampled:
        # it is echoed in the response (header + body), stamped on the
        # JSON logs, and — when sampled — keys the span tree in /traces.
        request_id = self._request_id()
        root = self.server.service.tracer.start_trace(
            "http.link", request_id=request_id
        )
        with root:
            status, payload, extra = self._handle_link(root, request_id)
            root.set_tag("status", status)
        payload["request_id"] = request_id
        headers = {"X-Request-ID": request_id}
        headers.update(extra)
        self._respond(status, payload, headers=headers)

    def _resolve_tenant(self, payload: Dict[str, Any]) -> Optional[str]:
        """The request's tenant from body field and/or ``X-Tenant``.

        Both channels exist so curl-style callers can use the body and
        proxy/gateway deployments can inject a header; when both are
        present they must agree — silently preferring one would make
        misrouted requests undebuggable.
        """
        body_tenant = _parse_tenant_field(payload)
        header_tenant = self._tenant_header()
        if (
            body_tenant is not None
            and header_tenant is not None
            and body_tenant != header_tenant
        ):
            raise BadRequestError(
                f"body tenant {body_tenant!r} and X-Tenant header "
                f"{header_tenant!r} disagree"
            )
        return body_tenant if body_tenant is not None else header_tenant

    def _handle_link(
        self, root: Any, request_id: str
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """Run one /link request under ``root``.

        Returns ``(status, body, extra headers)``.
        """

        def error_body(code: str, message: str) -> Dict[str, Any]:
            return error_envelope(code, message, request_id)

        service = self.server.service
        multi_tenant = getattr(service, "multi_tenant", False)
        tenant: Optional[str] = None
        try:
            payload = self._read_json()
            queries, k, top = _parse_link_body(payload)
            requested = self._resolve_tenant(payload)
            root.set_tag("queries", len(queries))
            if k is not None:
                root.set_tag("k", k)
            if multi_tenant:
                tenant = service.resolve_name(requested)
                root.set_tag("tenant", tenant)
                results = service.link_many(queries, k=k, tenant=tenant)
                ontology = service.ontology_for(tenant)
            else:
                if requested is not None:
                    raise UnknownTenantError(
                        f"tenant {requested!r} was named but this "
                        "deployment is single-tenant"
                    )
                results = service.link_many(queries, k=k)
                ontology = service.ontology
        except BadRequestError as error:
            return 400, error_body("bad_request", str(error)), {}
        except UnknownTenantError as error:
            return 404, error_body("unknown_tenant", str(error)), {}
        except QuotaExceededError as error:
            # Retry-After is the seconds until the oldest request in
            # the tenant's rolling window expires, rounded up.
            retry_after = max(1, math.ceil(error.retry_after_s))
            return (
                429,
                error_body("quota_exceeded", str(error)),
                {"Retry-After": str(retry_after)},
            )
        except ServiceNotReadyError as error:
            # The exception's own message matters: for the procpool
            # tier it names a failed worker's init error.
            return 503, error_body("not_ready", str(error)), {}
        except ShedError as error:
            # Load shedding is a 503 like not-ready — the service is
            # alive but refusing this request; retry against a less
            # loaded instance (or after backoff).
            return 503, error_body("shed", str(error)), {}
        except TimeoutError:
            return (
                504,
                error_body("timeout", "request timed out; retry with backoff"),
                {},
            )
        except ReproError as error:
            return 400, error_body(type(error).__name__, str(error)), {}
        except Exception as error:  # noqa: BLE001 - last-resort boundary
            LOGGER.error("internal error serving /link: %s", error)
            return 500, error_body("internal", "internal server error"), {}
        degraded = sum(1 for result in results if result.degraded)
        LOGGER.info(
            "linked %d queries (%d degraded)", len(results), degraded
        )
        body: Dict[str, Any] = {
            "results": [
                result_to_json(result, ontology, top=top)
                for result in results
            ]
        }
        if multi_tenant:
            body["tenant"] = tenant
        return 200, body, {}

    def _handle_map(self) -> None:
        """``POST /v1/map``: cross-ontology concept projection."""
        service = self.server.service
        request_id = self._request_id()
        if not getattr(service, "multi_tenant", False):
            self._respond_error(
                404,
                "mapping_disabled",
                "cross-ontology mapping needs a multi-tenant deployment "
                "(no tenants section is configured)",
                request_id=request_id,
            )
            return
        headers = {"X-Request-ID": request_id}
        root = service.tracer.start_trace("http.map", request_id=request_id)
        try:
            with root:
                payload = self._read_json()
                if not isinstance(payload, dict):
                    raise BadRequestError("request body must be a JSON object")
                query = payload.get("query")
                cid = payload.get("cid")
                if (query is None) == (cid is None):
                    raise BadRequestError(
                        "provide exactly one of 'query' (string) or 'cid' "
                        "(string)"
                    )
                field = "query" if query is not None else "cid"
                value = query if query is not None else cid
                if not isinstance(value, str) or not value.strip():
                    raise BadRequestError(
                        f"'{field}' must be a non-empty string"
                    )
                for name in ("source", "target"):
                    given = payload.get(name)
                    if given is not None and (
                        not isinstance(given, str) or not given.strip()
                    ):
                        raise BadRequestError(
                            f"'{name}' must be a non-empty string"
                        )
                k = payload.get("k")
                if k is not None and (
                    not isinstance(k, int) or isinstance(k, bool) or k < 1
                ):
                    raise BadRequestError("'k' must be a positive integer")
                limit = payload.get("limit", 5)
                if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
                    raise BadRequestError("'limit' must be a positive integer")
                report = service.map_concept(
                    payload.get("source"),
                    payload.get("target"),
                    query=query,
                    cid=cid,
                    k=k,
                    limit=limit,
                )
                root.set_tag("source", report["source"])
                root.set_tag("target", report["target"])
            report["request_id"] = request_id
            self._respond(200, report, headers=headers)
        except BadRequestError as error:
            self._respond_error(
                400, "bad_request", str(error), request_id=request_id
            )
        except UnknownTenantError as error:
            self._respond_error(
                404, "unknown_tenant", str(error), request_id=request_id
            )
        except QuotaExceededError as error:
            self._respond_error(
                429,
                "quota_exceeded",
                str(error),
                request_id=request_id,
                headers={"Retry-After": str(max(1, math.ceil(error.retry_after_s)))},
            )
        except ServiceNotReadyError as error:
            self._respond_error(
                503, "not_ready", str(error), request_id=request_id
            )
        except ShedError as error:
            self._respond_error(503, "shed", str(error), request_id=request_id)
        except TimeoutError:
            self._respond_error(
                504,
                "timeout",
                "request timed out; retry with backoff",
                request_id=request_id,
            )
        except ReproError as error:
            self._respond_error(
                400, type(error).__name__, str(error), request_id=request_id
            )
        except Exception as error:  # noqa: BLE001 - last-resort boundary
            LOGGER.error("internal error serving /map: %s", error)
            self._respond_error(
                500, "internal", "internal server error", request_id=request_id
            )

    def _handle_swap(self) -> None:
        """``POST /v1/admin/swap``: drive the blue/green swapper.

        On a multi-tenant deployment the body's ``"tenant"`` (or the
        default tenant) names whose controller is driven; the
        single-tenant path is untouched.
        """
        service = self.server.service
        request_id = self._request_id()
        if getattr(service, "multi_tenant", False):
            self._handle_swap_multi_tenant(request_id)
            return
        lifecycle = getattr(self.server.service, "lifecycle", None)
        if lifecycle is None:
            self._respond_error(
                404,
                "lifecycle_disabled",
                "no lifecycle controller is attached to this service",
                request_id=request_id,
            )
            return
        try:
            payload = self._read_json()
        except BadRequestError as error:
            self._respond_error(
                400, "bad_request", str(error), request_id=request_id
            )
            return
        action = payload.get("action") if isinstance(payload, dict) else None
        if action not in ("promote", "rollback"):
            self._respond_error(
                400,
                "bad_request",
                "'action' must be 'promote' or 'rollback'",
                request_id=request_id,
            )
            return
        self._drive_swap(lifecycle, action, payload, request_id)

    def _handle_swap_multi_tenant(self, request_id: str) -> None:
        """The tenant-targeted swap path (multi-tenant deployments).

        The body is read *first* (unlike the single-tenant path, which
        checks for an attached controller before parsing) because the
        target tenant is named in it.
        """
        try:
            payload = self._read_json()
            if not isinstance(payload, dict):
                raise BadRequestError("request body must be a JSON object")
            requested = self._resolve_tenant(payload)
        except BadRequestError as error:
            self._respond_error(
                400, "bad_request", str(error), request_id=request_id
            )
            return
        service = self.server.service
        try:
            tenant = service.resolve_name(requested)
        except UnknownTenantError as error:
            self._respond_error(
                404, "unknown_tenant", str(error), request_id=request_id
            )
            return
        lifecycle = service.lifecycle_for(tenant)
        if lifecycle is None:
            self._respond_error(
                404,
                "lifecycle_disabled",
                f"no lifecycle controller is attached to tenant {tenant!r}",
                request_id=request_id,
            )
            return
        action = payload.get("action")
        if action not in ("promote", "rollback"):
            self._respond_error(
                400,
                "bad_request",
                "'action' must be 'promote' or 'rollback'",
                request_id=request_id,
            )
            return
        self._drive_swap(lifecycle, action, payload, request_id)

    def _drive_swap(
        self,
        lifecycle: Any,
        action: str,
        payload: Dict[str, Any],
        request_id: str,
    ) -> None:
        """Run a validated promote/rollback against one controller."""
        from repro.lifecycle.swap import LifecycleError

        headers = {"X-Request-ID": request_id}
        try:
            if action == "promote":
                force = bool(payload.get("force", False))
                report = lifecycle.promote(force=force)
                if report.get("promoted"):
                    self._respond(
                        200,
                        {"swap": report, "request_id": request_id},
                        headers=headers,
                    )
                else:
                    body = error_envelope(
                        "swap_blocked",
                        f"promotion blocked: {report.get('reason')}",
                        request_id,
                    )
                    body["swap"] = report
                    self._respond(409, body, headers=headers)
            else:
                reason = str(payload.get("reason") or "manual")
                report = lifecycle.rollback(reason)
                self._respond(
                    200,
                    {"swap": report, "request_id": request_id},
                    headers=headers,
                )
        except LifecycleError as error:
            self._respond_error(
                409, "no_candidate", str(error), request_id=request_id
            )
        except ReproError as error:
            self._respond_error(
                400, type(error).__name__, str(error), request_id=request_id
            )
        except Exception as error:  # noqa: BLE001 - last-resort boundary
            LOGGER.error("internal error serving /admin/swap: %s", error)
            self._respond_error(
                500, "internal", "internal server error", request_id=request_id
            )

    def _read_json(self) -> Any:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise BadRequestError("Content-Length header is required")
        try:
            length = int(length_header)
        except ValueError:
            raise BadRequestError("Content-Length must be an integer")
        if length <= 0:
            raise BadRequestError("request body is empty")
        if length > MAX_BODY_BYTES:
            raise BadRequestError(
                f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise BadRequestError("request body is not valid JSON")


class LinkingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries its LinkingService."""

    daemon_threads = True
    # Fast rebinds between test/deploy restarts.
    allow_reuse_address = True
    # socketserver's default listen backlog is 5; a burst of concurrent
    # clients (the whole point of this server) overflows that and shows
    # up as connection resets on a loaded machine.
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], service: LinkingService) -> None:
        super().__init__(address, _LinkRequestHandler)
        self.service = service

    @property
    def port(self) -> int:
        return self.server_address[1]


def create_server(
    service: LinkingService, host: str = "127.0.0.1", port: int = 0
) -> LinkingHTTPServer:
    """Bind (port 0 picks an ephemeral port) without starting to serve."""
    return LinkingHTTPServer((host, port), service)


def run_server(
    server: LinkingHTTPServer, install_signal_handlers: bool = True
) -> None:
    """Serve until SIGINT/SIGTERM (or ``server.shutdown()``), then drain.

    Signal handlers are only installed from the main thread (Python
    forbids them elsewhere); background callers stop the server with
    ``server.shutdown()``.
    """
    stop = threading.Event()

    def _request_stop(signum: object = None, frame: object = None) -> None:
        # shutdown() must not run on the serve_forever thread; hand it off.
        stop.set()
        threading.Thread(target=server.shutdown, daemon=True).start()

    if install_signal_handlers and threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGINT, _request_stop)
        signal.signal(signal.SIGTERM, _request_stop)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.service.stop()
        server.server_close()
        LOGGER.info("server stopped")
