"""The workloads; each returns end-to-end or per-layer metrics.

* ``interactive`` — open-loop single queries over HTTP to the
  multi-process tier (``repro serve --workers nproc-1``).
* ``tenants-swap`` — open-loop reads split over two tenants on the
  threaded multi-tenant tier, with redeploys of ``icd`` between the
  measured phases.

Every answer is checked against the sequential Phase-II oracle.  The
README explains the choices; the numbers below are the knobs.
"""

from __future__ import annotations

import json
import os
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import build
import harness
import loadgen
from harness import Oracle, median, tail

HERE = Path(__file__).resolve().parent
K = build.K

#: Open-loop reference rate of the HTTP workloads (requests/s).  Low
#: enough that p50 stays in the fast mode of the latency distribution
#: and the tail (about p97 at this run length) inside the mode of
#: responses held back by the server's 40 ms Nagle/delayed-ACK stall.
REFERENCE_RPS = 15.0
#: Seed of the open-loop arrival schedules (independent of --seed).
ARRIVALS_SEED = 7
#: Latency limit on the tail for ``max_rate_rps`` (HTTP workloads).
HTTP_LIMIT_MS = 250.0
#: Rungs of the rate ladder, as shares of the closed-loop capacity.  The
#: tail stays near the stall mode until queues build close to capacity,
#: so the rungs are close together there.
LADDER = (0.85, 0.9, 0.95, 1.0)
#: Redeploys per run, spread over the run: a shared machine's speed can
#: drift by tens of percent over seconds, so samples taken in one
#: stretch would all share its speed.
REDEPLOYS = 6
#: tenants-swap: server starts per run (the set-up samples), and the
#: share of ``--seconds`` of each of its three redeploy phases.
STARTS = 4
REDEPLOY_SHARE = 0.08
#: Overhead above this (client latency minus server handling) is a stall.
STALL_MS = 35.0
#: Shares of ``--seconds`` for the closed loop, the reference phase and
#: the ladder; tenants-swap gives the rest to its redeploy phases.
INTERACTIVE_SHARES = (0.15, 0.6, 0.25)
TENANTS_SHARES = (0.12, 0.44, 0.2)


@dataclass
class Run:
    """One benchmark run's settings and scratch space."""

    root: Path
    build: Path
    seed: int
    seconds: float
    work: Path
    counters: Optional[Any] = None  # probes.Counters in the traced run
    rng: random.Random = field(init=False)
    _index: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    @property
    def traced(self) -> bool:
        return self.counters is not None

    def next_index(self) -> int:
        self._index += 1
        return self._index


@dataclass
class Outcome:
    """What a workload reports: metrics plus the answer tally."""

    metrics: Dict[str, Tuple[float, str]]
    attempted: int
    failed: int
    wrong: int  # answered, but not what the oracle answers


def _connections() -> int:
    return max(1, min(8, os.cpu_count() or 1))


# -- shared HTTP phases -------------------------------------------------------


class Traffic:
    """Draws requests from the seeded pool order and checks answers."""

    def __init__(self, run: Run, oracles: Dict[str, Oracle], tenants: List[str]):
        self.run = run
        self.oracles = oracles
        self.tenants = tenants
        self.orders = {
            tenant: harness.seeded_order(run.rng, oracles[tenant].pool)
            for tenant in tenants
        }
        self.cursors = {tenant: 0 for tenant in tenants}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def next_request(self, due: float = 0.0) -> loadgen.Request:
        """Next query of a tenant drawn by the seed (one tenant: always it)."""
        tenant = self.tenants[self.run.rng.randrange(len(self.tenants))]
        order = self.orders[tenant]
        query = order[self.cursors[tenant] % len(order)]
        self.cursors[tenant] += 1
        return loadgen.Request(
            query=query,
            index=self.run.next_index(),
            k=K,
            tenant=tenant if len(self.tenants) > 1 else "",
            due=due,
        )

    def schedule(self, rate: float, seconds: float) -> List[loadgen.Request]:
        """Open-loop arrivals at ``rate`` for ``seconds``.

        The arrival times are one fixed Poisson sample per (rate,
        length), the same for every seed: tenants-swap's redeploys are
        fixed against it, and the share of requests sent close behind
        another (which decides how many meet the server's TCP stall)
        does not drift between seeds.  The seed draws the queries.
        """
        count = max(11, int(round(rate * seconds)))
        arrivals = random.Random(f"{ARRIVALS_SEED}:{rate:.6f}:{count}")
        due = 0.0
        requests = []
        for gap in harness.exponential_gaps(arrivals, rate, count):
            due += gap
            requests.append(self.next_request(due))
        return requests

    def ok(self, sample: loadgen.Sample) -> bool:
        tenant = sample.request.tenant or self.tenants[0]
        return sample.answered and self.oracles[tenant].check_http(
            sample.request.query, sample.payload
        )

    def tally(self, phase: loadgen.Phase) -> None:
        for sample in phase.samples:
            self.attempted += 1
            if not self.ok(sample):
                self.failed += 1
                if sample.answered:
                    self.wrong += 1


def _monotone(points: List[Tuple[float, float, int]]) -> List[float]:
    """Tails made non-decreasing in rate (pool-adjacent-violators, each
    rung weighted by its sample count): one rung whose short window
    happened to catch a burst does not end the ladder early."""
    blocks: List[List[float]] = []  # [weighted sum, weight, rungs]
    for _, value, weight in points:
        blocks.append([value * weight, float(weight), 1.0])
        while len(blocks) > 1 and (
            blocks[-2][0] / blocks[-2][1] > blocks[-1][0] / blocks[-1][1]
        ):
            total, weight_sum, rungs = blocks.pop()
            blocks[-1][0] += total
            blocks[-1][1] += weight_sum
            blocks[-1][2] += rungs
    fitted: List[float] = []
    for total, weight, rungs in blocks:
        fitted.extend([total / weight] * int(rungs))
    return fitted


def _ladder_rate(points: List[Tuple[float, float, int]]) -> float:
    """Highest rate whose (monotone-fitted) tail meets the limit,
    interpolated linearly between the last rung that meets it and the
    first that does not.  When even the first rung misses the limit,
    its rate is scaled down by how far its tail overshoots."""
    rates = [rate for rate, _, _ in points]
    tails = _monotone(points)
    for index, (rate, tail_ms) in enumerate(zip(rates, tails)):
        if tail_ms > HTTP_LIMIT_MS:
            if index == 0:
                return rate * HTTP_LIMIT_MS / tail_ms
            low_rate, low_tail = rates[index - 1], tails[index - 1]
            share = (HTTP_LIMIT_MS - low_tail) / (tail_ms - low_tail)
            return low_rate + share * (rate - low_rate)
    return rates[-1]


@dataclass
class HttpResult:
    reference: loadgen.Phase
    capacity_qps: float
    max_rate_rps: float
    off_segments: List[Tuple[float, float]]
    window_s: float  # from the closed loop's start to the ladder's end


@dataclass
class Deployment:
    """The serving process under load; redeploys replace it."""

    process: harness.Process
    port: int


def drive_http(
    run: Run,
    target: Deployment,
    traffic: Traffic,
    shares: Tuple[float, float, float],
    between: Optional[Callable[[], None]] = None,
) -> HttpResult:
    """Warm-up, closed-loop capacity, open-loop reference, rate ladder.

    ``shares`` splits ``--seconds`` between the last three phases.
    ``between`` runs after each of them, so that samples of a redeploy
    are spread over the run rather than taken in one stretch of it
    (a shared machine's speed can drift by tens of percent over seconds).
    """
    share_closed, share_reference, share_ladder = shares
    connections = _connections()
    traffic.tally(
        loadgen.closed_loop(
            target.port, traffic.next_request, connections, 1.0
        )
    )
    if run.traced:
        run.counters.enable(True)
    closed = loadgen.closed_loop(
        target.port,
        traffic.next_request,
        connections,
        share_closed * run.seconds,
    )
    traffic.tally(closed)
    capacity = sum(1 for s in closed.samples if traffic.ok(s)) / closed.elapsed
    if between is not None:
        between()

    seconds = share_reference * run.seconds
    schedule = traffic.schedule(REFERENCE_RPS, seconds)
    start = time.perf_counter() + 0.1
    off_segments: List[Tuple[float, float]] = []
    toggler: Optional[threading.Thread] = None
    if run.traced:
        # Alternate half-second windows with the probes off, to measure
        # their overhead on the same server under the same load.
        off_segments = [
            (start + i / 2, start + (i + 1) / 2)
            for i in range(1, int(2 * seconds), 2)
        ]
        toggler = threading.Thread(
            target=_toggle, args=(run.counters, off_segments)
        )
        toggler.start()
    reference = loadgen.open_loop(target.port, schedule, connections, start)
    if toggler is not None:
        toggler.join()
    traffic.tally(reference)
    if reference.samples and max(
        s.generator_late_s for s in reference.samples
    ) > loadgen.MAX_GENERATOR_LATE_S:
        raise InvalidRun("load generator fell behind its schedule")
    if between is not None:
        between()

    points: List[Tuple[float, float, int]] = []
    rung_seconds = share_ladder * run.seconds / len(LADDER)
    for share in LADDER:
        rate = share * capacity
        rung = loadgen.open_loop(
            target.port,
            traffic.schedule(rate, rung_seconds),
            connections,
            time.perf_counter() + 0.05,
        )
        traffic.tally(rung)
        value, _, count = tail(rung.latencies_s(traffic.ok))
        points.append((rate, value * 1e3, count))
    print(
        "linkbench: ladder (rps, tail ms): "
        + ", ".join(f"({rate:.1f}, {value:.1f})" for rate, value, _ in points),
        file=sys.stderr,
    )
    window_s = time.perf_counter() - closed.started
    if between is not None:
        between()
    if run.traced:
        run.counters.enable(False)
    return HttpResult(
        reference=reference,
        capacity_qps=capacity,
        max_rate_rps=_ladder_rate(points),
        off_segments=off_segments,
        window_s=window_s,
    )


def report_samples(setups: List[float], swaps: List[float]) -> None:
    print(
        "linkbench: setup_s samples "
        + " ".join(f"{x:.3f}" for x in setups)
        + "; redeploy samples "
        + " ".join(f"{x:.3f}" for x in swaps),
        file=sys.stderr,
    )


class InvalidRun(RuntimeError):
    """The load generator, not the program, failed to keep its schedule."""


def _toggle(counters: Any, windows: List[Tuple[float, float]]) -> None:
    for begin, end in windows:
        time.sleep(max(0.0, begin - time.perf_counter()))
        counters.enable(False)
        time.sleep(max(0.0, end - time.perf_counter()))
        counters.enable(True)


def e2e_http(
    traffic: Traffic,
    result: HttpResult,
    setups: List[float],
    swaps: List[float],
    rss_mb: float,
    oracle: Oracle,
) -> Dict[str, Tuple[float, str]]:
    report_samples(setups, swaps)
    latencies = result.reference.latencies_s(traffic.ok)
    value, percentile, count = tail(latencies)
    print(
        f"linkbench: latency_tail_ms is p{percentile:.1f} of {count} samples",
        file=sys.stderr,
    )
    return {
        "latency_p50_ms": (median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (value * 1e3, "ms"),
        "max_rate_rps": (result.max_rate_rps, "1/s"),
        "throughput_qps": (result.capacity_qps, "1/s"),
        "setup_s": (median(setups), "s"),
        "accuracy_at1": (oracle.accuracy_at1, "fraction"),
        "mrr": (oracle.mrr, "fraction"),
        "rss_mb": (rss_mb, "MB"),
        "ok_share": (1.0 - traffic.failed / max(1, traffic.attempted), "fraction"),
    }


# -- per-layer metrics ---------------------------------------------------------


def layer_metrics(totals: Dict[str, Dict[str, float]]) -> Dict[str, Tuple[float, str]]:
    """Per-query layer times and counts from the probe totals."""
    queries = max(1.0, totals["linker"]["items"])

    def per_query_ms(layer: str) -> float:
        return totals[layer]["seconds"] / queries * 1e3

    def ratio(layer: str) -> float:
        calls = totals[layer]["calls"]
        return totals[layer]["items"] / calls if calls else 0.0

    metrics = {
        "linker.ms_per_query": (per_query_ms("linker"), "ms"),
        "or.ms_per_query": (per_query_ms("or"), "ms"),
        "cr.ms_per_query": (per_query_ms("cr"), "ms"),
        "ed.ms_per_query": (per_query_ms("ed"), "ms"),
        "rt.ms_per_query": (
            per_query_ms("linker")
            - per_query_ms("or")
            - per_query_ms("cr")
            - per_query_ms("ed"),
            "ms",
        ),
        "or.rewrites_per_query": (ratio("or"), "count"),
        "cr.candidates_per_query": (ratio("cr"), "count"),
        "ed.rows_per_call": (ratio("ed"), "count"),
        "ed.steps_per_call": (ratio("decode"), "count"),
    }
    for layer in (
        "embedding", "lstm_step", "text_attention", "structure_attention",
        "composite", "projection", "log_softmax",
    ):
        name = f"nn.{layer}"
        metrics[f"{name}.ms_per_query"] = (per_query_ms(name), "ms")
        metrics[f"{name}.calls"] = (totals[name]["calls"], "count")
    return metrics


def http_layer_metrics(
    run: Run, traffic: Traffic, result: HttpResult
) -> Dict[str, Tuple[float, str]]:
    """Connection overhead per request, and the probes' own overhead.

    The probes' overhead compares the reference phase's requests sent
    with the probes on against those sent with them off, using only
    answers that were not stalled, so the comparison sees the server.
    """
    overheads = []
    on, off = [], []
    for sample in result.reference.samples:
        if not traffic.ok(sample):
            continue
        served = sample.done - sample.sent
        probed = not any(
            begin <= sample.sent < end for begin, end in result.off_segments
        )
        if probed:
            server = run.counters.request_seconds(sample.request.index)
            if server > 0:
                overheads.append((served - server) * 1e3)
        if served * 1e3 < STALL_MS:
            (on if probed else off).append(served)
    late = [s.generator_late_s for s in result.reference.samples]
    metrics = {
        "http.overhead_p50_ms": (median(overheads), "ms"),
        "http.overhead_tail_ms": (tail(overheads)[0], "ms"),
        "http.stall_share": (
            sum(1 for x in overheads if x > STALL_MS) / len(overheads),
            "fraction",
        ),
        "trace.overhead_pct": (
            (median(on) / median(off) - 1.0) * 100.0, "%"
        ),
        "loadgen.late_max_ms": (max(late) * 1e3, "ms"),
        "loadgen.backlog_max": (float(result.reference.backlog_max()), "count"),
    }
    return metrics


def _metrics_snapshot(port: int) -> Dict[str, Any]:
    connection = loadgen.Connection(port)
    try:
        _, snapshot = connection.request("GET", "/v1/metrics")
    finally:
        connection.close()
    return snapshot


def frontend_metrics(
    before: Dict[str, Any], after: Dict[str, Any], seconds: float
) -> Dict[str, Tuple[float, str]]:
    """Front-end and worker-pool figures from the program's own counters."""

    def histogram_delta(name: str) -> Tuple[float, float]:
        old = before["histograms"].get(name, {"count": 0, "sum": 0.0})
        new = after["histograms"][name]
        return new["count"] - old["count"], new["sum"] - old["sum"]

    def frontend_delta(key: str) -> float:
        return float(after["frontend"][key] - before["frontend"][key])

    waits, wait_s = histogram_delta("frontend.queue_wait_seconds")
    jobs, job_queries = histogram_delta("frontend.fused_batch_size")
    busy = sum(w["busy_s"] for w in after["frontend"]["workers"]) - sum(
        w["busy_s"] for w in before["frontend"]["workers"]
    )
    workers = len(after["frontend"]["workers"])
    return {
        "frontend.queue_wait_ms": (wait_s / max(1, waits) * 1e3, "ms"),
        "frontend.queries_per_job": (job_queries / max(1, jobs), "count"),
        "frontend.shed": (
            frontend_delta("shed_queue_full")
            + frontend_delta("shed_dropped_oldest")
            + frontend_delta("shed_deadline"),
            "count",
        ),
        "frontend.redispatch": (frontend_delta("redispatches"), "count"),
        "worker.busy_share": (busy / (seconds * workers), "fraction"),
    }


# -- interactive -------------------------------------------------------------


def interactive(run: Run) -> Outcome:
    from repro import api

    oracle = Oracle(run.build / "icd")
    traffic = Traffic(run, {"icd": oracle}, ["icd"])
    model_dir = run.build / "icd" / "model"
    workers = max(1, (os.cpu_count() or 2) - 1)
    probe = traffic.next_request()

    def start(artifact: Path) -> Tuple[harness.Process, int, float]:
        serve = [
            "--model", str(model_dir), "--artifact-dir", str(artifact),
            "--workers", str(workers), "--port", "0",
        ]
        if run.traced:
            args = [str(HERE / "serve_traced.py"), str(run.counters.path), *serve]
        else:
            args = ["-m", "repro", "serve", *serve]
        process = harness.Process(args, run.root)
        try:
            banner = process.readline()
            port = int(banner.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            answered = loadgen.wait_answer(port, probe, process.started + 60.0)
        except BaseException:
            process.stop()
            raise
        return process, port, answered - process.started

    # The multi-process tier cannot swap artifacts in place, so a
    # redeploy is process-level blue/green: compile the live weights,
    # start a server on the new artifact, answer, retire the old one.
    model, ontology, kb, _, _ = api.load_pipeline(model_dir)
    process, port, setup = start(run.build / "icd" / "artifact")
    target = Deployment(process, port)
    setups, swaps = [setup], []

    rss = [0.0]

    def redeploy() -> None:
        began = time.perf_counter()
        artifact = run.work / f"artifact-{len(swaps)}"
        api.compile_artifact(artifact, model, ontology, kb=kb, index="both")
        process, port, setup = start(artifact)
        rss[0] = max(rss[0], harness.peak_rss_mb(target.process.pid))
        target.process.stop()
        target.process, target.port = process, port
        swaps.append(time.perf_counter() - began)
        setups.append(setup)
        traffic.tally(
            loadgen.closed_loop(
                port, traffic.next_request, _connections(), 0.3
            )
        )

    try:
        # The traced run reads the front-end's counters before and after
        # the load, from one server, so it redeploys up front only.
        for _ in range(REDEPLOYS if run.traced else REDEPLOYS - 3):
            redeploy()
        before = _metrics_snapshot(target.port) if run.traced else None
        result = drive_http(
            run,
            target,
            traffic,
            INTERACTIVE_SHARES,
            between=None if run.traced else redeploy,
        )
        after = _metrics_snapshot(target.port) if run.traced else None
        rss[0] = max(rss[0], harness.peak_rss_mb(target.process.pid))
    finally:
        target.process.stop()
    if run.traced:
        metrics = layer_metrics(run.counters.totals())
        metrics.update(http_layer_metrics(run, traffic, result))
        metrics.update(frontend_metrics(before, after, result.window_s))
    else:
        metrics = e2e_http(traffic, result, setups, swaps, rss[0], oracle)
    return Outcome(metrics, traffic.attempted, traffic.failed, traffic.wrong)


# -- tenants-swap --------------------------------------------------------------


def tenants_swap(run: Run) -> Outcome:
    oracles = {name: Oracle(run.build / name) for name in ("icd", "sct")}
    traffic = Traffic(run, oracles, ["icd", "sct"])
    probes = [
        loadgen.Request(oracles[name].pool[0], run.next_index(), K, name)
        for name in ("icd", "sct")
    ]

    def start() -> Tuple[harness.Process, int, float]:
        args = [str(HERE / "tenant_server.py"), str(run.build), str(run.work)]
        if run.traced:
            args.append(str(run.counters.path))
        process = harness.Process(args, run.root, stdin=True)
        try:
            port = int(json.loads(process.readline())["port"])
            deadline = process.started + 60.0
            answered = max(
                loadgen.wait_answer(port, probe, deadline) for probe in probes
            )
        except BaseException:
            process.stop()
            raise
        return process, port, answered - process.started

    setups = []
    for _ in range(STARTS - 1):
        process, _, setup = start()
        process.stop()
        setups.append(setup)
    server, port, setup = start()
    setups.append(setup)
    redeploys = Redeploys(run, Deployment(server, port), traffic)
    try:
        result = drive_http(
            run, redeploys.target, traffic, TENANTS_SHARES,
            between=redeploys.phase,
        )
        stats = server.command("stats")
        rss = harness.peak_rss_mb(server.pid)
    finally:
        server.stop()
    windows = redeploys.windows
    failed_swaps = sum(1 for _, _, reply in windows if not reply["promoted"])
    traffic.failed += failed_swaps
    traffic.attempted += len(windows)
    if run.traced:
        metrics = layer_metrics(run.counters.totals())
        metrics.update(http_layer_metrics(run, traffic, result))
        metrics.update(swap_metrics(traffic, redeploys, stats, failed_swaps))
    else:
        swaps = [reply["total_s"] for _, _, reply in windows]
        metrics = e2e_http(traffic, result, setups, swaps, rss, oracles["icd"])
        # Quality over both tenants' pools.
        for name in ("accuracy_at1", "mrr"):
            metrics[name] = (
                sum(getattr(o, name) for o in oracles.values()) / len(oracles),
                "fraction",
            )
    return Outcome(metrics, traffic.attempted, traffic.failed, traffic.wrong)


class Redeploys:
    """tenants-swap's redeploy phases: reads while ``icd`` is redeployed.

    Each phase sends open-loop reads at the reference rate and starts a
    third of ``REDEPLOYS`` at fixed offsets; the arrivals are a fixed
    schedule too, so the reads caught by a redeploy are the same share
    in every run.  A redeploy blocks the threaded tier's
    reads for about its whole duration (the compile holds the
    interpreter lock), so these reads are kept out of the reference
    phase's latency metrics: with ten samples in the tail they set it
    by chance (observed spread 0.47 over five seeds).  They are
    reported per layer, and so is the redeploy's own cost
    (``swap.total_s``).
    """

    def __init__(self, run: Run, target: Deployment, traffic: Traffic) -> None:
        self.run = run
        self.target = target
        self.traffic = traffic
        self.reads: List[loadgen.Sample] = []
        self.windows: List[Tuple[float, float, Dict[str, Any]]] = []

    def phase(self) -> None:
        seconds = REDEPLOY_SHARE * self.run.seconds
        schedule = self.traffic.schedule(REFERENCE_RPS, seconds)
        start = time.perf_counter() + 0.1

        def redeploy() -> None:
            for i in range(REDEPLOYS // 3):
                due = start + seconds * i / (REDEPLOYS // 3)
                time.sleep(max(0.0, due - time.perf_counter()))
                began = time.perf_counter()
                reply = self.target.process.command("redeploy")
                self.windows.append((began, time.perf_counter(), reply))

        thread = threading.Thread(target=redeploy)
        thread.start()
        reads = loadgen.open_loop(
            self.target.port, schedule, _connections(), start
        )
        thread.join()
        self.traffic.tally(reads)
        self.reads.extend(reads.samples)


def swap_metrics(
    traffic: Traffic,
    redeploys: Redeploys,
    stats: Dict[str, Any],
    rollbacks: int,
) -> Dict[str, Tuple[float, str]]:
    """Registry, compile and swap figures, and reads caught in a swap."""
    overlapping = [
        sample.done - sample.due
        for sample in redeploys.reads
        if traffic.ok(sample)
        and any(
            sample.sent < end and sample.done > begin
            for begin, end, _ in redeploys.windows
        )
    ]
    replies = [reply for _, _, reply in redeploys.windows]
    totals = traffic.run.counters.totals()
    batches = totals["linker"]["calls"]
    service_queries = max(1.0, totals["service"]["items"])
    # A query waits in the batcher for its link_many time minus the
    # link_batch time of the batch it rode in (batch-size weighted).
    ridden = totals["linker"]["weighted"] / max(1.0, totals["linker"]["items"])
    return {
        "batcher.batch_size": (
            totals["linker"]["items"] / batches if batches else 0.0, "count"
        ),
        "batcher.queue_wait_ms": (
            (totals["service"]["seconds"] / service_queries - ridden) * 1e3,
            "ms",
        ),
        "service.link_many_ms": (
            totals["service"]["seconds"]
            / max(1.0, totals["service"]["calls"])
            * 1e3,
            "ms",
        ),
        "registry.loads": (float(stats["loads"]), "count"),
        "registry.evictions": (float(stats["evictions"]), "count"),
        "registry.load_s": (stats["load_s"], "s"),
        "swap.total_s": (median([r["total_s"] for r in replies]), "s"),
        "compile.s": (median([r["compile_s"] for r in replies]), "s"),
        "swap.stage_s": (median([r["stage_s"] for r in replies]), "s"),
        "swap.promote_s": (median([r["promote_s"] for r in replies]), "s"),
        "swap.rollbacks": (float(rollbacks), "count"),
        "swap.overlap_share": (
            len(overlapping) / max(1, len(redeploys.reads)),
            "fraction",
        ),
        "swap.overlap_latency_ms": (
            median(overlapping) * 1e3 if overlapping else 0.0, "ms"
        ),
    }


WORKLOADS: Dict[str, Callable[[Run], Outcome]] = {
    "interactive": interactive,
    "tenants-swap": tenants_swap,
}
