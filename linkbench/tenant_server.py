"""The tenants-swap deployment: two tenants over HTTP, ``icd`` redeployable.

Usage: ``PYTHONPATH=src python3 linkbench/tenant_server.py BUILD_DIR
WORKDIR [COUNTERS_FILE]``

Serves the ``icd`` (hospital-x-like) and ``sct`` (snomed-like) tenants
of a build on the threaded multi-tenant tier, built only through
``repro.api``: ``load_tenants`` behind ``create_server``.  ``repro
serve`` cannot redeploy a tenant from outside (it exposes promote and
rollback, not compile and stage), so this script owns the process and
takes one command per line on stdin, answering one JSON line each:

* ``redeploy`` — compile the live ``icd`` weights into a fresh
  artifact (``LifecycleController.compile_candidate``), stage it
  (``ArtifactSwapper.stage``) and promote it; answers the wall time of
  each step.
* ``stats`` — tenant loads, their wall times and evictions.
* ``quit`` — stop serving and exit.

With ``COUNTERS_FILE`` the per-layer probes are installed first.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(build: Path, workdir: Path, counters_path: str = "") -> None:
    counters = None
    if counters_path:
        import probes

        counters = probes.Counters(Path(counters_path))
        probes.install(counters)
    from repro import api
    from repro.tenancy import pipeline_loader

    load = pipeline_loader()
    load_seconds: List[float] = []

    def timed_load(name: str, tenant: Any, config: Any):
        started = time.perf_counter()
        loaded = load(name, tenant, config)
        load_seconds.append(time.perf_counter() - started)
        return loaded

    runtime = api.RuntimeConfig(
        tenants=api.TenancyConfig(
            definitions={
                name: api.TenantConfig(
                    pipeline=str(build / name / "model"),
                    artifact_dir=str(build / name / "artifact"),
                )
                for name in ("icd", "sct")
            },
            default="icd",
        )
    )
    service = api.load_tenants(runtime, loader=timed_load)
    server = api.create_server(service, port=0)
    if counters is not None:
        probes.install_http(counters, server)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.1}
    )
    thread.start()
    reply({"port": server.port})
    controller = None
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "redeploy":
                if controller is None:
                    controller = _controller(api, service, workdir)
                reply(_redeploy(controller))
            elif command == "stats":
                reply(_stats(service, load_seconds))
            elif command == "quit":
                break
    finally:
        server.shutdown()
        thread.join()
        service.stop()
        server.server_close()


def _controller(api: Any, service: Any, workdir: Path) -> Any:
    registry = service.registry
    runtime = registry.resolve("icd")
    tenant = registry.service_for(runtime)
    controller = api.LifecycleController(
        tenant,
        api.ComAidTrainer(tenant.linker.model.config),
        registry.kb_for(runtime),
        workdir=workdir,
    )
    service.attach_lifecycle(controller, tenant="icd")
    return controller


def _redeploy(controller: Any) -> Dict[str, Any]:
    """compile -> stage -> promote of the live weights, each step timed."""
    model = controller.service.linker.model
    started = time.perf_counter()
    artifact = controller.compile_candidate(model)
    compiled = time.perf_counter()
    controller.stage(model, artifact)
    staged = time.perf_counter()
    # Same weights, so the shadow's quality gates have nothing to judge;
    # promotion is the operator's forced redeploy.
    report = controller.promote(force=True)
    promoted = time.perf_counter()
    return {
        "compile_s": compiled - started,
        "stage_s": staged - compiled,
        "promote_s": promoted - staged,
        "total_s": promoted - started,
        "promoted": bool(report.get("promoted")),
    }


def _stats(service: Any, load_seconds: List[float]) -> Dict[str, Any]:
    tenants = service.registry.snapshot()["tenants"].values()
    return {
        "loads": sum(report["loads"] for report in tenants),
        "load_s": sum(load_seconds),
        "evictions": sum(report["evictions"] for report in tenants),
    }


def reply(payload: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main(Path(sys.argv[1]), Path(sys.argv[2]), *sys.argv[3:4])
