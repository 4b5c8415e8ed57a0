"""Cross-process observability end-to-end: stitched traces, worker
metrics exposition, SLO surfaces, and request-ID echo on errors.

One warm multi-process server (2 forked workers, sampling every
request) backs the HTTP tests; the forced-fusion and shed tests drive
the front-end directly for determinism.
"""

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.config import LinkerConfig, ServingConfig
from repro.core.linker import NeuralConceptLinker
from repro.obs.trace import Tracer
from repro.serving.frontend import ShedError, build_frontend
from repro.serving.server import create_server, run_server
from repro.serving.service import ProcPoolLinkingService

from .conftest import SERVING_QUERIES


def _post(base, path, payload, headers=None, timeout=60.0):
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + path,
        data=body,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, dict(response.headers), json.load(response)
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.load(error)


def _get(base, path, timeout=60.0):
    try:
        with urllib.request.urlopen(base + path, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read().decode("utf-8")


def _get_json(base, path, timeout=60.0):
    status, headers, text = _get(base, path, timeout=timeout)
    return status, headers, json.loads(text)


def _spans_by_name(trace_dict):
    by_name = {}
    for span in trace_dict["spans"]:
        by_name.setdefault(span["name"], []).append(span)
    return by_name


@pytest.fixture(scope="module")
def mp_server(trained_pipeline, compiled_artifact):
    ontology, kb, model = trained_pipeline
    linker = NeuralConceptLinker(
        model,
        ontology,
        LinkerConfig(
            k=5,
            artifact_dir=str(compiled_artifact),
            mmap_artifact=True,
        ),
        kb=kb,
    )
    service = ProcPoolLinkingService(
        lambda: linker,
        ontology,
        ServingConfig(
            port=0, workers=2, trace_sample_rate=1.0, trace_buffer=64,
            max_batch_size=8,
        ),
    )
    service.start(wait=True)
    server = create_server(service, port=0)
    thread = threading.Thread(
        target=run_server,
        args=(server,),
        kwargs={"install_signal_handlers": False},
        daemon=True,
    )
    thread.start()
    base = f"http://127.0.0.1:{server.port}"
    yield base, service
    server.shutdown()
    thread.join(5.0)


class TestStitchedTraceTree:
    def test_procpool_request_yields_one_stitched_tree(self, mp_server):
        base, _ = mp_server
        status, headers, payload = _post(
            base, "/v1/link", {"query": "ckd stage 5"},
            headers={"X-Request-ID": "req-mp-tree"},
        )
        assert status == 200
        assert headers["X-Request-ID"] == "req-mp-tree"

        status, _, body = _get_json(base, "/v1/traces?request_id=req-mp-tree")
        assert status == 200
        (trace_dict,) = body["traces"]
        by_name = _spans_by_name(trace_dict)
        # The stitched acceptance tree: HTTP root -> service request ->
        # front-end queue/fuse/dispatch -> the worker's local root ->
        # the linker's Figure-11 phases, all in ONE trace.
        for name in (
            "http.link",
            "service.request",
            "frontend.queue",
            "frontend.fuse",
            "frontend.dispatch",
            "worker.link",
            "linker.rewrite",
            "linker.retrieve",
            "linker.phase2",
            "linker.rerank",
        ):
            assert name in by_name, (name, sorted(by_name))
        root = by_name["http.link"][0]
        assert root["parent_id"] is None
        request = by_name["service.request"][0]
        assert request["parent_id"] == root["span_id"]
        # Queue wait, fusion marker, and dispatch all hang under the
        # request span.
        for name in ("frontend.queue", "frontend.fuse", "frontend.dispatch"):
            assert by_name[name][0]["parent_id"] == request["span_id"], name
        dispatch = by_name["frontend.dispatch"][0]
        worker_root = by_name["worker.link"][0]
        assert worker_root["parent_id"] == dispatch["span_id"]
        # The worker subtree names its process and slot, and they agree
        # with what the dispatcher recorded on the dispatch span.
        worker_id = worker_root["tags"]["worker_id"]
        assert dispatch["tags"]["worker"] == worker_id
        status, _, admin = _get_json(base, "/v1/admin/workers")
        assert status == 200
        pids = {entry["worker_id"]: entry["pid"] for entry in admin["workers"]}
        assert worker_root["tags"]["pid"] == pids[worker_id]
        # Figure-11 taxonomy survives the process hop.
        linker_parents = set()
        for name, phase in (
            ("linker.rewrite", "OR"),
            ("linker.retrieve", "CR"),
            ("linker.phase2", "ED"),
            ("linker.rerank", "RT"),
        ):
            assert by_name[name][0]["tags"]["phase"] == phase
            linker_parents.add(by_name[name][0]["parent_id"])
        assert linker_parents == {worker_root["span_id"]}

    def test_sixteen_concurrent_callers_do_not_cross_contaminate(
        self, mp_server
    ):
        base, _ = mp_server
        queries = {
            f"req-mp-conc-{index}": SERVING_QUERIES[index % len(SERVING_QUERIES)]
            for index in range(16)
        }

        def do_request(item):
            request_id, query = item
            status, _, _ = _post(
                base, "/v1/link", {"query": query},
                headers={"X-Request-ID": request_id},
            )
            assert status == 200

        with ThreadPoolExecutor(max_workers=16) as pool:
            list(pool.map(do_request, queries.items()))

        for request_id, query in queries.items():
            status, _, body = _get_json(
                base, f"/v1/traces?request_id={request_id}"
            )
            assert status == 200, request_id
            by_name = _spans_by_name(body["traces"][0])
            # Fused dispatch shares worker jobs across requests; each
            # trace must still hold exactly its own query's spans.
            assert len(by_name["service.request"]) == 1
            assert by_name["service.request"][0]["tags"]["query"] == query
            for name in ("frontend.dispatch", "worker.link",
                         "linker.rewrite", "linker.phase2"):
                assert len(by_name[name]) == 1, (request_id, name)


class TestForcedFusionTrace:
    def test_three_fused_bursts_each_get_a_complete_stitched_tree(
        self, make_worker_linker
    ):
        # The lone worker's factory sleeps before handing back the
        # linker, so its ready handshake provably lands after all three
        # submits are queued; the first dispatch then fuses them into
        # ONE worker job, so these span trees can only have come
        # through the fused cross-process path.
        linker = make_worker_linker()

        def slow_factory():
            time.sleep(0.5)
            return linker

        frontend = build_frontend(
            slow_factory, workers=1, max_batch_size=8, warm=False
        )
        tracer = Tracer(sample_rate=1.0, capacity=8)
        bursts = [SERVING_QUERIES[i] for i in range(3)]
        try:
            roots = [
                tracer.start_trace("bench.link", request_id=f"req-fuse-{i}")
                for i in range(3)
            ]
            futures = [
                frontend.submit([query], [None], spans=[root])
                for query, root in zip(bursts, roots)
            ]
            results = [future.result(60.0) for future in futures]
            for root in roots:
                root.end()
            stats = frontend.stats()
            assert stats["jobs_ok"] == 1, stats
        finally:
            frontend.stop()
        assert all(len(r) == 1 for r in results)
        for index, query in enumerate(bursts):
            trace_dict = tracer.find(f"req-fuse-{index}")
            assert trace_dict is not None
            by_name = _spans_by_name(trace_dict)
            fuse = by_name["frontend.fuse"][0]
            assert fuse["tags"] == {"fused_jobs": 3, "fused_queries": 3}
            worker_root = by_name["worker.link"][0]
            assert worker_root["tags"]["worker_id"] == 0
            assert worker_root["tags"]["pid"] > 0
            assert worker_root["tags"]["batch_queries"] == 3
            for name, phase in (
                ("linker.rewrite", "OR"),
                ("linker.retrieve", "CR"),
                ("linker.phase2", "ED"),
                ("linker.rerank", "RT"),
            ):
                assert len(by_name[name]) == 1, (index, name)
                assert by_name[name][0]["tags"]["phase"] == phase


class TestShedObservability:
    def test_shed_request_gets_event_and_counter(self, make_worker_linker):
        from repro.serving.metrics import MetricsRegistry

        linker = make_worker_linker()
        metrics = MetricsRegistry()
        # bound=1 and a worker whose factory sleeps past both submits:
        # nothing can drain the queue, so the second submit must shed
        # deterministically.

        def slow_factory():
            time.sleep(0.5)
            return linker

        frontend = build_frontend(
            slow_factory, workers=1, admission_bound=1, warm=False,
            metrics=metrics,
        )
        tracer = Tracer(sample_rate=1.0, capacity=4)
        try:
            first = tracer.start_trace("bench.link", request_id="req-kept")
            frontend.submit(["ckd stage 5"], [None], spans=[first])
            second = tracer.start_trace("bench.link", request_id="req-shed")
            with pytest.raises(ShedError) as excinfo:
                frontend.submit(["anemia"], [None], spans=[second])
            assert excinfo.value.reason == "queue_full"
            second.end()
        finally:
            frontend.stop()
        trace_dict = tracer.find("req-shed")
        by_name = _spans_by_name(trace_dict)
        events = by_name["bench.link"][0]["events"]
        shed_events = [e for e in events if e["name"] == "frontend.shed"]
        assert shed_events and shed_events[0]["attrs"] == {
            "reason": "reject_new"
        }
        # The queue span closed with the shed tag instead of leaking.
        assert by_name["frontend.queue"][0]["tags"]["shed"] == "reject_new"
        counters, _ = metrics.collect()
        assert counters["frontend.shed.reject_new"].value == 1


class TestAdminWorkersEndpoint:
    def test_worker_table_frontend_and_slo(self, mp_server):
        base, service = mp_server
        _post(base, "/v1/link", {"query": "ckd stage 5"})
        status, _, body = _get_json(base, "/v1/admin/workers")
        assert status == 200
        assert len(body["workers"]) == 2
        for entry in body["workers"]:
            assert entry["ready"] is True
            assert entry["pid"] > 0
            for key in ("jobs", "queries", "errors", "respawns",
                        "degraded", "busy_s"):
                assert key in entry
        assert sum(e["queries"] for e in body["workers"]) >= 1
        frontend = body["frontend"]
        assert frontend["ready"] is True
        assert frontend["init_failed"] is False
        assert "queue_depth" in frontend
        assert "shed_queue_full" in frontend
        slo = body["slo"]
        assert slo["requests"] >= 1
        assert 0.0 <= slo["availability"] <= 1.0

    def test_single_process_tier_answers_404(self, make_linker):
        from repro.serving.service import LinkingService

        service = LinkingService(
            make_linker(), ServingConfig(port=0, warm_on_start=False)
        )
        service.start(wait=True)
        server = create_server(service, port=0)
        thread = threading.Thread(
            target=run_server, args=(server,),
            kwargs={"install_signal_handlers": False}, daemon=True,
        )
        thread.start()
        base = f"http://127.0.0.1:{server.port}"
        try:
            status, _, body = _get_json(base, "/v1/admin/workers")
            assert status == 404
            assert body["error"]["code"] == "workers_disabled"
        finally:
            server.shutdown()
            thread.join(5.0)


class TestPrometheusExposition:
    def test_per_worker_and_frontend_series_are_exported(self, mp_server):
        base, _ = mp_server
        _post(base, "/v1/link", {"query": "ckd stage 5"})
        status, _, text = _get(base, "/v1/metrics?format=prometheus")
        assert status == 200
        # Per-worker labeled families — one sample per worker slot.
        for worker in ("0", "1"):
            assert f'repro_worker_jobs_total{{worker="{worker}"}}' in text
            assert f'repro_worker_queries_total{{worker="{worker}"}}' in text
            assert f'repro_worker_busy_seconds{{worker="{worker}"}}' in text
            assert f'repro_worker_ready{{worker="{worker}"}} 1.0' in text
        # Front-end gauges and counters.
        assert "repro_frontend_queue_depth" in text
        assert "repro_frontend_ready 1.0" in text
        assert "repro_frontend_jobs_ok_total" in text
        # Admission/queue histograms.
        assert "repro_frontend_queue_wait_seconds_bucket" in text
        assert "repro_frontend_fused_batch_size_bucket" in text
        assert "repro_frontend_worker_decode_seconds_bucket" in text
        # The rolling SLO window flattens into gauges.
        assert "repro_slo_availability" in text
        assert "repro_slo_error_budget_burn_rate" in text
        assert "repro_slo_p99_s" in text

    def test_json_metrics_carry_slo_and_frontend_state(self, mp_server):
        base, _ = mp_server
        _post(base, "/v1/link", {"query": "anemia blood loss"})
        status, _, body = _get_json(base, "/v1/metrics")
        assert status == 200
        slo = body["slo"]
        assert slo["requests"] >= 1
        assert slo["error_budget_burn_rate"] >= 0.0
        frontend = body["frontend"]
        assert frontend["ready"] is True
        assert len(frontend["workers"]) == 2
        # PR-8 fault-tolerance state is first-class in the snapshot.
        for key in ("worker_deaths", "redispatches", "all_ready",
                    "init_failed"):
            assert key in frontend


class TestErrorRequestIdEcho:
    def test_not_ready_error_echoes_request_id(
        self, trained_pipeline, make_worker_linker
    ):
        ontology, _, _ = trained_pipeline
        linker = make_worker_linker()
        service = ProcPoolLinkingService(
            lambda: linker, ontology, ServingConfig(port=0, workers=1)
        )
        # Never started: not ready, and the error must still correlate.
        server = create_server(service, port=0)
        thread = threading.Thread(
            target=run_server, args=(server,),
            kwargs={"install_signal_handlers": False}, daemon=True,
        )
        thread.start()
        base = f"http://127.0.0.1:{server.port}"
        try:
            status, headers, body = _post(
                base, "/v1/link", {"query": "anemia"},
                headers={"X-Request-ID": "req-not-ready"},
            )
            assert status == 503
            assert body["error"]["code"] == "not_ready"
            assert headers["X-Request-ID"] == "req-not-ready"
            assert body["error"]["request_id"] == "req-not-ready"
        finally:
            server.shutdown()
            thread.join(5.0)
