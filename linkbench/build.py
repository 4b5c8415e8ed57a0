"""Build cache: datasets, trained pipelines, compiled artifacts and oracles.

Everything here is a pure function of the program's source and
:data:`BUILD_SEED`, so it is built once per program version and reused
by every run: the cache key hashes every file under ``src/`` together
with this benchmark's build recipe.  The workload seed passed to
``run.py`` never reaches this module; it only draws queries and
arrival times from the pools built here.

Per tenant the build runs the program's own CLI (``repro generate``,
``repro train``, ``repro compile``) and then records the sequential
Phase-II oracle: every pool query linked with ``batch_phase2=False``
on the plain pipeline (no artifact), the reference path the program's
equivalence suites compare against.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from typing import Dict, List

#: Seed of everything built; independent of the workload seed.
BUILD_SEED = 2018

#: Oracle and served rankings are compared at this k.
K = 10

#: tenant name -> (dataset preset, generate seed, train seed).
TENANTS = {
    "icd": ("hospital-x-like", BUILD_SEED, BUILD_SEED + 1),
    "sct": ("snomed-like", BUILD_SEED + 2, BUILD_SEED + 3),
}
POOL_SIZE = 400

HERE = Path(__file__).resolve().parent


def source_key(root: Path) -> str:
    """Hash of the program's sources plus this benchmark's build recipe."""
    digest = hashlib.sha256()
    digest.update(f"seed={BUILD_SEED};k={K};pool={POOL_SIZE}".encode())
    files = sorted(
        path
        for path in (root / "src").rglob("*")
        if path.is_file() and "__pycache__" not in path.parts
    )
    files += [HERE / "build.py", HERE / "oracle.py"]
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:20]


def python_env(root: Path) -> Dict[str, str]:
    """Environment that runs the checkout's program, whatever is installed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _run(args: List[str], root: Path) -> None:
    completed = subprocess.run(
        [sys.executable, *args],
        cwd=root,
        env=python_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"build step {' '.join(args[:3])} failed "
            f"({completed.returncode}):\n{completed.stdout[-2000:]}"
        )


def _build_tenant(name: str, target: Path, root: Path) -> None:
    dataset, data_seed, train_seed = TENANTS[name]
    base = target / name
    _run(["-m", "repro", "generate", "--dataset", dataset,
          "--out", str(base / "data"), "--seed", str(data_seed),
          "--queries", str(POOL_SIZE)], root)
    _run(["-m", "repro", "train", "--data", str(base / "data"),
          "--out", str(base / "model"), "--seed", str(train_seed)], root)
    _run(["-m", "repro", "compile", "--model", str(base / "model"),
          "--out", str(base / "artifact")], root)
    _run([str(HERE / "oracle.py"), str(base)], root)


def ensure_built(root: Path) -> Path:
    """Return the build directory for this program version, building it."""
    cache = root / ".linkbench"
    cache.mkdir(exist_ok=True)
    target = cache / f"build-{source_key(root)}"
    with open(cache / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if (target / "DONE").exists():
            return target
        staging = cache / f"{target.name}.partial"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir()
        errors: List[BaseException] = []

        def build(name: str) -> None:
            try:
                _build_tenant(name, staging, root)
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        # The two tenants train in parallel: one process each.
        threads = [
            threading.Thread(target=build, args=(name,)) for name in TENANTS
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        (staging / "DONE").write_text(json.dumps({"seed": BUILD_SEED}))
        staging.rename(target)
        return target
