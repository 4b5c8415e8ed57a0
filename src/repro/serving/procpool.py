"""Forked worker processes serving linker batches over pipes.

Threads top out at the GIL: Phase-II decode is pure Python + NumPy on
shared bytecode, so extra decode threads buy no end-to-end qps.  This
module turns parallelism into wall-clock throughput the only way
CPython allows — separate processes:

* workers are **forked** (``multiprocessing.get_context("fork")``), so
  the model, ontology, and configuration the ``build_linker`` closure
  captures are inherited copy-on-write — no pickling of model state,
  no per-worker re-training;
* each worker builds its *own* linker, loading the compiled artifact
  with ``mmap=True``: N workers mapping the same ``slab.bin`` share one
  set of page-cache pages, so per-worker unique RSS is O(caches), not
  O(artifact) (``tests/serving/test_zero_copy.py`` measures exactly
  this);
* the parent speaks a tiny framed protocol over one duplex pipe per
  worker — ``("ready", pid)`` / ``("init_error", type, msg)`` after
  construction, then ``(job_id, queries, ks, trace_ids)`` requests
  answered by ``(job_id, "ok", results, traces, stats)`` or
  ``(job_id, "error", type, msg)``.  ``trace_ids`` carries one
  optional request ID per query: for each traced query the worker runs
  its own local :class:`~repro.obs.trace.Tracer` (the parent's span
  objects cannot cross the fork), tags the local root with its pid and
  worker id, and ships the finished span subtree back in ``traces``
  for the front-end to graft under the dispatching span — one stitched
  tree per request, spanning processes.  With every ``trace_ids``
  entry ``None`` (sampling off) no tracer is ever built and the reply
  carries ``None`` placeholders: the no-sampling fast path stays flat.
  ``stats`` is a small always-on dict (query/degrade counts, per-phase
  seconds, decode wall time) the parent aggregates into the shared
  metrics plane.

Determinism: every worker runs the same pure function over the same
frozen artifact, so which worker serves a request cannot change its
ranking — the property ``tests/serving/test_procpool_equivalence.py``
proves against the in-process reference linker.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs import trace
from repro.utils.logging import get_logger

LOGGER = get_logger("serving.procpool")

#: Sent to a worker to make it exit its loop cleanly.
_SHUTDOWN = None


def _worker_main(
    conn: Any,
    build_linker: Callable[[], Any],
    worker_id: int,
    warm: bool,
) -> None:
    """Worker-process entry point: build one linker, serve jobs forever.

    SIGINT is ignored — a Ctrl-C at the terminal must tear the pool
    down through the parent's orderly ``stop()`` (which closes pipes),
    not kill workers mid-batch and strand in-flight futures.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        linker = build_linker()
        if warm:
            linker.warm_cache()
    except BaseException as error:  # noqa: BLE001 - reported to the parent
        try:
            conn.send(("init_error", type(error).__name__, str(error)))
        finally:
            conn.close()
        return
    conn.send(("ready", os.getpid()))
    # Built on first traced job only: the untraced path must not pay
    # for a tracer it never uses.
    tracer: Optional[trace.Tracer] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent is gone; nothing left to serve
        if message is _SHUTDOWN:
            break
        job_id, queries, ks, trace_ids = message
        roots: Optional[List[Any]] = None
        if trace_ids is not None and any(rid for rid in trace_ids):
            if tracer is None:
                tracer = trace.Tracer(sample_rate=1.0, capacity=1)
            roots = [
                _start_worker_root(
                    tracer, request_id, worker_id, len(queries)
                )
                if request_id
                else None
                for request_id in trace_ids
            ]
        started = time.perf_counter()
        try:
            results = linker.link_batch(queries, k=ks, trace_contexts=roots)
        except Exception as error:  # noqa: BLE001 - forwarded to the caller
            if roots is not None:
                for root in roots:
                    if root is not None:
                        root.set_tag("error", type(error).__name__)
                        root.end()
            conn.send((job_id, "error", type(error).__name__, str(error)))
        else:
            elapsed = time.perf_counter() - started
            traces: Optional[List[Optional[Dict[str, Any]]]] = None
            if roots is not None:
                for root in roots:
                    if root is not None:
                        root.end()
                traces = [trace.export_trace(root) for root in roots]
            conn.send(
                (job_id, "ok", results, traces, _job_stats(results, elapsed))
            )
    conn.close()


def _start_worker_root(
    tracer: "trace.Tracer",
    request_id: str,
    worker_id: int,
    batch_queries: int,
):
    """One local root span for a traced query, tagged with its origin."""
    root = tracer.start_trace("worker.link", request_id=request_id)
    root.set_tag("pid", os.getpid())
    root.set_tag("worker_id", worker_id)
    root.set_tag("batch_queries", batch_queries)
    return root


def _job_stats(results: Sequence[Any], elapsed: float) -> Dict[str, Any]:
    """The per-reply metrics delta shipped back with every result."""
    phase_seconds: Dict[str, float] = {}
    degraded = 0
    for result in results:
        if result.degraded:
            degraded += 1
        for phase, seconds in result.timing.items():
            phase_seconds[phase] = phase_seconds.get(phase, 0.0) + seconds
    return {
        "queries": len(results),
        "degraded": degraded,
        "decode_s": elapsed,
        "phase_seconds": phase_seconds,
    }


@dataclass
class WorkerHandle:
    """Parent-side view of one worker process."""

    worker_id: int
    process: multiprocessing.process.BaseProcess
    conn: Any
    pid: int = 0
    ready: bool = False
    init_error: Optional[str] = None
    jobs: int = 0
    queries: int = 0
    errors: int = 0
    respawns: int = 0
    degraded: int = 0
    #: Cumulative seconds this worker spent decoding (from its own
    #: per-reply stats) — per-worker utilisation and mean job latency
    #: derive from this without a per-worker histogram.
    busy_s: float = 0.0
    #: The job currently on this worker's pipe, if any (set by the
    #: front-end's dispatcher; used to re-dispatch after a crash).
    inflight: Optional[object] = field(default=None, repr=False)

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    def stats(self) -> dict:
        """Snapshot of this worker slot for ``/metrics``."""
        return {
            "worker_id": self.worker_id,
            "pid": self.pid,
            "alive": self.alive,
            "ready": self.ready,
            "jobs": self.jobs,
            "queries": self.queries,
            "errors": self.errors,
            "respawns": self.respawns,
            "degraded": self.degraded,
            "busy_s": self.busy_s,
        }


class ProcessPool:
    """Spawns, tracks, respawns, and stops the worker processes."""

    def __init__(
        self,
        build_linker: Callable[[], Any],
        workers: int,
        warm: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._build_linker = build_linker
        self._warm = warm
        # Fork, explicitly: the whole design (closure capture of the
        # model, copy-on-write inheritance, no spawn-time pickling)
        # assumes it.  The default start method is platform-dependent.
        self._ctx = multiprocessing.get_context("fork")
        self.workers: List[WorkerHandle] = [
            self._spawn(index) for index in range(workers)
        ]

    def _spawn(self, worker_id: int) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._build_linker, worker_id, self._warm),
            name=f"link-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent keeps only its end
        return WorkerHandle(
            worker_id=worker_id, process=process, conn=parent_conn
        )

    def respawn(self, handle: WorkerHandle) -> WorkerHandle:
        """Replace a dead worker in place; returns the new handle."""
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=5.0)
        fresh = self._spawn(handle.worker_id)
        fresh.respawns = handle.respawns + 1
        self.workers[handle.worker_id] = fresh
        LOGGER.warning(
            "worker %d (pid %s) died; respawned as pid %s",
            handle.worker_id,
            handle.pid or "?",
            fresh.process.pid,
        )
        return fresh

    def stop(self, timeout: float = 5.0) -> None:
        """Orderly shutdown: sentinel, join, then terminate stragglers."""
        for handle in self.workers:
            try:
                handle.conn.send(_SHUTDOWN)
            except (OSError, BrokenPipeError):
                pass
        for handle in self.workers:
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass

    def stats(self) -> List[dict]:
        """Per-worker slot snapshots, in slot order."""
        return [handle.stats() for handle in self.workers]
