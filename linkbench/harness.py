"""Shared pieces: order statistics, the oracle check, processes, memory."""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import build

#: |Δlog-prob| allowed between a served ranking and the oracle's.
LOG_PROB_TOLERANCE = 1e-9


# -- order statistics ---------------------------------------------------------


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with ten samples
    beyond it.  Failures enter as +inf, so they are always beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# -- oracle -------------------------------------------------------------------


class Oracle:
    """Sequential Phase-II rankings of one tenant's pool (from the build)."""

    def __init__(self, tenant_dir: Path) -> None:
        report = json.loads((tenant_dir / "oracle.json").read_text())
        self.k: int = report["k"]
        self.accuracy_at1: float = report["accuracy_at1"]
        self.mrr: float = report["mrr"]
        self.pool: List[str] = [entry["text"] for entry in report["queries"]]
        self._ranked: Dict[str, list] = {
            entry["text"]: entry["ranked"] for entry in report["queries"]
        }

    def matches(self, query: str, ranked: Sequence[Tuple[str, Any]]) -> bool:
        """Same cids in the same order, every log-prob within tolerance.

        A degraded answer (``log_prob`` None or -inf) never matches.
        """
        expected = self._ranked.get(query)
        if expected is None or len(expected) != len(ranked):
            return False
        for (cid, log_prob), (want_cid, want) in zip(ranked, expected):
            if (
                cid != want_cid
                or log_prob is None
                or want is None
                or not math.isfinite(log_prob)
                or abs(log_prob - want) > LOG_PROB_TOLERANCE
            ):
                return False
        return True

    def check_http(self, query: str, payload: Optional[dict]) -> bool:
        """Whether one ``/v1/link`` answer for ``query`` is right."""
        if not payload or len(payload.get("results", ())) != 1:
            return False
        result = payload["results"][0]
        if result.get("query") != query or result.get("degraded"):
            return False
        return self.matches(
            query,
            [(item["cid"], item["log_prob"]) for item in result["ranked"]],
        )


def seeded_order(rng: Any, pool: Sequence[str]) -> List[str]:
    """The pool in a seeded order: every query once before any repeats."""
    order = list(pool)
    rng.shuffle(order)
    return order


def exponential_gaps(rng: Any, rate: float, count: int) -> List[float]:
    """``count`` Poisson inter-arrival gaps with a stratified sample.

    One gap per equal-probability stratum of the exponential
    distribution, shuffled by the seed: the arrivals are still
    memoryless in shape, but every seed gets the same mix of short and
    long gaps, so runs differ in order only and the share of requests
    that arrive close behind another does not drift between seeds.
    """
    gaps = [
        -math.log(1.0 - (i + rng.random()) / count) / rate
        for i in range(count)
    ]
    rng.shuffle(gaps)
    return gaps


# -- processes ----------------------------------------------------------------


class Process:
    """A child process the benchmark owns: started, then always reaped."""

    def __init__(self, args: List[str], root: Path, stdin: bool = False) -> None:
        self.started = time.perf_counter()
        self.popen = subprocess.Popen(
            [sys.executable, *args],
            cwd=root,
            env=build.python_env(root),
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )

    @property
    def pid(self) -> int:
        return self.popen.pid

    def readline(self) -> str:
        line = self.popen.stdout.readline()
        if not line:
            raise RuntimeError(
                f"process {self.pid} exited ({self.popen.poll()}) "
                "before answering"
            )
        return line

    def command(self, text: str) -> Dict[str, Any]:
        """Send one command line and read its JSON answer line."""
        self.popen.stdin.write(text + "\n")
        self.popen.stdin.flush()
        return json.loads(self.readline())

    def stop(self, timeout: float = 10.0) -> None:
        """SIGTERM (or ``quit`` on stdin), then SIGKILL; waits either way."""
        if self.popen.poll() is None:
            try:
                if self.popen.stdin is not None:
                    self.popen.stdin.write("quit\n")
                    self.popen.stdin.flush()
                else:
                    self.popen.send_signal(signal.SIGTERM)
            except (BrokenPipeError, OSError):
                pass
            try:
                self.popen.wait(timeout)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait()
        for stream in (self.popen.stdin, self.popen.stdout):
            if stream is not None:
                stream.close()


def peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of ``pid`` plus that of each of its children."""
    pids = [pid]
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            pids.append(int(entry))
    total_kb = 0
    for one in pids:
        try:
            with open(f"/proc/{one}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0
