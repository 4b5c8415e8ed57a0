"""Per-layer timing from outside the program, for the traced run.

Wrappers around public methods of live objects (or of their classes,
when the objects are built inside the program) add call counts, busy
seconds and an item count per layer into a :class:`Counters` table.
The table lives in a file-backed shared ``mmap`` inside the checkout,
so processes forked after the wrappers are installed (the
``repro serve --workers`` pool) inherit them and add into the same
table, and the benchmark process reads the sums after the run.

Nothing under ``src/`` is changed: with tracing off no wrapper is
installed at all.
"""

from __future__ import annotations

import fcntl
import mmap
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional

#: Layers timed by wrappers; each has four columns: calls, seconds, items
#: and seconds*items (to weight a batch's time by the queries riding it).
LAYERS = (
    "service",     # LinkingService.link_many, items = queries
    "linker",      # NeuralConceptLinker.link_batch, items = queries
    "or",          # QueryRewriter.rewrite, items = rewrites applied
    "cr",          # ShardedConceptEngine.retrieve, items = candidates
    "ed",          # ShardedConceptEngine.score_batch, items = rows
    "decode",      # ComAid.score_batch, items = decode steps
    "nn.embedding",
    "nn.lstm_step",
    "nn.text_attention",
    "nn.structure_attention",
    "nn.composite",
    "nn.projection",
    "nn.log_softmax",
)
_COLUMNS = 4
_ROWS = 64  # process slots: the server, its workers, respawns
_HEADER = 8  # doubles: [0] enabled flag, [1] next free row
#: Server handling seconds per request, indexed by the request's number.
REQUEST_SLOTS = 1 << 16
_TABLE = len(LAYERS) * _COLUMNS
_SIZE = 8 * (_HEADER + _ROWS * _TABLE + REQUEST_SLOTS)


class Counters:
    """Shared per-layer sums; one row per process, summed on read."""

    def __init__(self, path: Path, create: bool = False) -> None:
        self.path = Path(path)
        if create:
            with open(self.path, "wb") as handle:
                handle.truncate(_SIZE)
        self._file = open(self.path, "r+b")
        self._map = mmap.mmap(self._file.fileno(), _SIZE)
        self._view = memoryview(self._map).cast("d")
        self._lock = threading.Lock()
        self._row_pid = -1
        self._row = 0
        self._index = {name: i * _COLUMNS for i, name in enumerate(LAYERS)}

    # -- switch -------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._view[0] != 0.0

    def enable(self, on: bool = True) -> None:
        self._view[0] = 1.0 if on else 0.0

    # -- writers ------------------------------------------------------------

    def _base(self) -> int:
        """This process's row, claimed on first use (forks get a new one)."""
        pid = os.getpid()
        if self._row_pid != pid:
            fcntl.flock(self._file, fcntl.LOCK_EX)
            try:
                row = int(self._view[1])
                self._view[1] = float(row + 1)
            finally:
                fcntl.flock(self._file, fcntl.LOCK_UN)
            if row >= _ROWS:
                raise RuntimeError("probe table has no free process row")
            self._row, self._row_pid = row, pid
            self._lock = threading.Lock()
        return _HEADER + self._row * _TABLE

    def add(self, layer: str, seconds: float, items: float) -> None:
        at = self._base() + self._index[layer]
        with self._lock:
            self._view[at] += 1.0
            self._view[at + 1] += seconds
            self._view[at + 2] += items
            self._view[at + 3] += seconds * items

    def record_request(self, index: int, seconds: float) -> None:
        if 0 <= index < REQUEST_SLOTS:
            self._view[_HEADER + _ROWS * _TABLE + index] = seconds

    # -- readers ------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {calls, seconds, items, weighted}}`` over processes."""
        out = {}
        for name, offset in self._index.items():
            sums = [0.0] * _COLUMNS
            for row in range(_ROWS):
                at = _HEADER + row * _TABLE + offset
                for column in range(_COLUMNS):
                    sums[column] += self._view[at + column]
            out[name] = dict(zip(("calls", "seconds", "items", "weighted"), sums))
        return out

    def request_seconds(self, index: int) -> float:
        return self._view[_HEADER + _ROWS * _TABLE + index]

    def close(self) -> None:
        self._view.release()
        self._map.close()
        self._file.close()


def _timed(
    counters: Counters,
    layer: str,
    function: Callable[..., Any],
    items: Callable[[tuple, dict, Any], float],
    gate: Optional[threading.local] = None,
) -> Callable[..., Any]:
    """``function`` timed into ``layer`` while the counters are enabled.

    With ``gate``, only calls made inside a decode (``ComAid.score_batch``)
    count, so the compile pass's encoder calls do not land in ``nn.*``.
    """

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not counters.enabled or (
            gate is not None and not getattr(gate, "depth", 0)
        ):
            return function(*args, **kwargs)
        started = time.perf_counter()
        result = function(*args, **kwargs)
        counters.add(
            layer, time.perf_counter() - started, items(args, kwargs, result)
        )
        return result

    wrapper.__wrapped__ = function  # type: ignore[attr-defined]
    return wrapper


def _one(args: tuple, kwargs: dict, result: Any) -> float:
    return 1.0


def _queries(args: tuple, kwargs: dict, result: Any) -> float:
    return float(len(args[1]))


def _result_len(args: tuple, kwargs: dict, result: Any) -> float:
    return float(len(result))


def _rewrites(args: tuple, kwargs: dict, result: Any) -> float:
    return float(len(result[1]))


def _steps(args: tuple, kwargs: dict, result: Any) -> float:
    return float(max(len(ids) for ids in args[1]) + 1)


def _instrument_model(model: Any, counters: Counters, gate: threading.local) -> None:
    """Time the decoder's layers at the model's own attributes."""
    layers = {
        "nn.embedding": model.embedding,
        "nn.lstm_step": model.decoder.cell,
        "nn.text_attention": model.text_attention,
        "nn.structure_attention": model.structure_attention,
        "nn.composite": model.composite,
        "nn.projection": model.output,
    }
    methods = {
        "nn.lstm_step": "step_batch",
        "nn.text_attention": "forward_batch",
        "nn.structure_attention": "forward_batch",
    }
    for layer, owner in layers.items():
        name = methods.get(layer, "forward")
        bound = getattr(owner, name)
        setattr(owner, name, _timed(counters, layer, bound, _one, gate))


def install(counters: Counters) -> None:
    """Wrap the program's layer entry points (call before building objects)."""
    from repro.core import comaid
    from repro.core.comaid import ComAid
    from repro.core.linker import NeuralConceptLinker
    from repro.core.rewriter import QueryRewriter
    from repro.engine.shards import ShardedConceptEngine
    from repro.serving.service import LinkingService

    gate = threading.local()
    NeuralConceptLinker.link_batch = _timed(
        counters, "linker", NeuralConceptLinker.link_batch, _queries
    )
    QueryRewriter.rewrite = _timed(
        counters, "or", QueryRewriter.rewrite, _rewrites
    )
    ShardedConceptEngine.retrieve = _timed(
        counters, "cr", ShardedConceptEngine.retrieve, _result_len
    )
    ShardedConceptEngine.score_batch = _timed(
        counters, "ed", ShardedConceptEngine.score_batch, _result_len
    )
    LinkingService.link_many = _timed(
        counters, "service", LinkingService.link_many, _queries
    )
    comaid.batched_target_log_probs = _timed(
        counters, "nn.log_softmax", comaid.batched_target_log_probs, _one, gate
    )
    decode = _timed(counters, "decode", ComAid.score_batch, _steps)
    instrumented: set = set()

    def score_batch(self: Any, *args: Any, **kwargs: Any) -> Any:
        if id(self) not in instrumented:
            instrumented.add(id(self))
            _instrument_model(self, counters, gate)
        gate.depth = getattr(gate, "depth", 0) + 1
        try:
            return decode(self, *args, **kwargs)
        finally:
            gate.depth -= 1

    ComAid.score_batch = score_batch


def install_http(counters: Counters, server: Any) -> None:
    """Time each request's handling inside a live HTTP server.

    The handler's ``do_POST`` covers parsing, linking, serialising and
    writing the answer to the socket; the client's latency minus this
    is what the connection itself added.
    """
    handler = server.RequestHandlerClass
    original = handler.do_POST

    def do_POST(self: Any) -> None:  # noqa: N802 - handler API
        if not counters.enabled:
            return original(self)
        started = time.perf_counter()
        try:
            return original(self)
        finally:
            elapsed = time.perf_counter() - started
            rid = self.headers.get("X-Request-ID", "")
            if rid.startswith("lb-"):
                counters.record_request(int(rid[3:]), elapsed)

    handler.do_POST = do_POST
