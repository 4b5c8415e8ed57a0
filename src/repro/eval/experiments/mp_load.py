"""Multi-process serving load benchmark — forked workers vs one.

The threaded tier tops out at the GIL: decode threads cannot buy
end-to-end qps because Phase-II decode is pure Python + NumPy.  The multi-process tier
(:class:`~repro.serving.service.ProcPoolLinkingService`) forks N
workers that mmap one compiled slab and decode in parallel outside
the parent's GIL.  This runner measures what that buys under a
closed-loop load:

* C client threads hammer the service for a fixed duration, each
  issuing the next request the moment the previous one resolves;
* every request ends in exactly one of three ways — served, shed
  (an explicit :class:`~repro.serving.frontend.ShedError`), or failed
  — so *availability* (the fraction that got a definitive answer)
  is measurable, and anything hung or dropped shows up as < 1.0;
* served throughput, accepted-request latency percentiles, and the
  shed rate are recorded per worker count.

``os.cpu_count()`` rides along in the report: on a single core the
forked tier cannot beat one worker on throughput (there is only one
core to run them on), so the ≥2× gate in
``benchmarks/test_mp_serving.py`` only arms on ≥4 CPUs and the
availability gate (1.0, always) is the universal invariant.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from dataclasses import replace
from typing import Dict, List, Sequence

from repro.core.linker import NeuralConceptLinker
from repro.engine.compile import compile_artifact
from repro.eval.experiments.scale import DEFAULT, ExperimentScale
from repro.eval.harness import build_pipeline
from repro.eval.reporting import emit, format_table
from repro.serving.frontend import ShedError
from repro.serving.service import ProcPoolLinkingService
from repro.utils.rng import derive_rng, ensure_rng


def _percentile(samples: Sequence[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


class _ClientStats:
    """One closed-loop client's tally (merged after join)."""

    __slots__ = ("ok", "shed", "failed", "latencies")

    def __init__(self) -> None:
        self.ok = 0
        self.shed = 0
        self.failed = 0
        self.latencies: List[float] = []


def _drive(
    service: ProcPoolLinkingService,
    queries: Sequence[str],
    k: int,
    clients: int,
    duration_s: float,
) -> Dict[str, float]:
    """Closed-loop load: ``clients`` threads for ``duration_s`` seconds."""
    stop_at = time.monotonic() + duration_s
    tallies = [_ClientStats() for _ in range(clients)]

    def client(index: int) -> None:
        stats = tallies[index]
        cursor = index
        while time.monotonic() < stop_at:
            query = queries[cursor % len(queries)]
            cursor += clients
            started = time.perf_counter()
            try:
                service.link_many([query], k=k)
            except ShedError:
                stats.shed += 1
            except Exception:  # noqa: BLE001 - tallied as unavailability
                stats.failed += 1
            else:
                stats.ok += 1
                stats.latencies.append(time.perf_counter() - started)

    threads = [
        threading.Thread(target=client, args=(index,), daemon=True)
        for index in range(clients)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started
    ok = sum(s.ok for s in tallies)
    shed = sum(s.shed for s in tallies)
    failed = sum(s.failed for s in tallies)
    issued = ok + shed + failed
    latencies = [sample for s in tallies for sample in s.latencies]
    return {
        "issued": issued,
        "served": ok,
        "shed": shed,
        "failed": failed,
        "elapsed_s": elapsed,
        "qps": ok / max(elapsed, 1e-12),
        "shed_rate": shed / max(issued, 1),
        # Every request either served, shed, or failed — a hung or
        # dropped request would leave issued short of the tally and a
        # failure books here directly.
        "availability": (ok + shed) / max(issued, 1),
        "latency_p50_s": _percentile(latencies, 0.50),
        "latency_p99_s": _percentile(latencies, 0.99),
    }


def run_mp_load(
    scale: ExperimentScale = DEFAULT,
    seed: int = 2018,
    k: int = 10,
    clients: int = 8,
    duration_s: float = 2.0,
    worker_counts: Sequence[int] = (1, 4),
    dataset: str = "hospital-x-like",
    artifact_dir: str | None = None,
    admission_queue: int = 256,
    shed_policy: str = "reject_new",
    max_batch_size: int = 8,
    verbose: bool = True,
) -> Dict[str, object]:
    """Closed-loop load against the multi-process tier per worker count.

    Returns a JSON-ready report: per-worker-count qps / latency
    percentiles / shed rate / availability, ``speedup_qps`` (the last
    worker count over the first), and ``availability`` (the minimum
    across modes — the number the benchmark gates at 1.0).
    """
    generator = ensure_rng(seed)
    bundle = scale.dataset(dataset, rng=derive_rng(generator, dataset))
    pipeline = build_pipeline(
        bundle,
        model_config=scale.model_config(),
        training_config=scale.training_config(),
        cbow_config=scale.cbow_config(),
        rng=derive_rng(generator, dataset, "pipeline"),
    )
    directory = artifact_dir or tempfile.mkdtemp(prefix="repro-mp-bench-")
    compile_artifact(
        directory,
        pipeline.model,
        bundle.ontology,
        kb=bundle.kb,
        index_aliases=pipeline.linker.config.index_aliases,
    )
    # Built once, pre-fork: the workers inherit the model and mapped
    # slab copy-on-write, exactly as `repro serve --workers N` does.
    worker_linker = NeuralConceptLinker(
        pipeline.model,
        bundle.ontology,
        replace(
            pipeline.linker.config,
            artifact_dir=str(directory),
            mmap_artifact=True,
        ),
        kb=bundle.kb,
        word_vectors=pipeline.word_vectors,
    )
    queries = [query.text for query in bundle.queries]

    from repro.core.config import ServingConfig

    modes: Dict[str, Dict[str, float]] = {}
    for workers in worker_counts:
        config = ServingConfig(
            workers=workers,
            admission_queue=admission_queue,
            shed_policy=shed_policy,
            max_batch_size=max_batch_size,
            warm_on_start=True,
        )
        service = ProcPoolLinkingService(
            lambda: worker_linker, bundle.ontology, config
        )
        service.start(wait=True)
        try:
            modes[f"workers_{workers}"] = _drive(
                service, queries, k, clients, duration_s
            )
        finally:
            service.stop()

    first = modes[f"workers_{worker_counts[0]}"]
    last = modes[f"workers_{worker_counts[-1]}"]
    report: Dict[str, object] = {
        "dataset": dataset,
        "scale": scale.name,
        "seed": seed,
        "k": k,
        "clients": clients,
        "duration_s": duration_s,
        "cpu_count": os.cpu_count(),
        "admission_queue": admission_queue,
        "shed_policy": shed_policy,
        "max_batch_size": max_batch_size,
        "worker_counts": list(worker_counts),
        "modes": modes,
        "speedup_qps": last["qps"] / max(first["qps"], 1e-12),
        "availability": min(mode["availability"] for mode in modes.values()),
    }
    if verbose:
        rows = [
            [
                name,
                int(stats["issued"]),
                round(stats["qps"], 1),
                round(stats["latency_p99_s"] * 1e3, 2),
                round(stats["shed_rate"], 4),
                round(stats["availability"], 4),
            ]
            for name, stats in modes.items()
        ]
        emit(
            format_table(
                ["mode", "issued", "qps", "p99 (ms)", "shed", "avail"],
                rows,
                title=(
                    f"Multi-process serving, {dataset} clients={clients} "
                    f"cpus={os.cpu_count()} "
                    f"(qps x{report['speedup_qps']:.2f})"
                ),
            )
        )
    return report
