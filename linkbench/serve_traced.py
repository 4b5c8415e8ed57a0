"""``repro serve`` with the per-layer probes installed (the traced run).

Usage: ``PYTHONPATH=src python3 linkbench/serve_traced.py COUNTERS_FILE
SERVE_ARGS...``

Installs the probes, then runs the program's own CLI entry point with
``serve SERVE_ARGS``.  The probes are in place before the pipeline is
loaded and before the worker processes fork, so the workers inherit
them and add into the same shared counters file.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(counters_path: str, serve_args: list) -> int:
    import probes
    from repro import cli
    from repro.serving import server as server_module

    counters = probes.Counters(Path(counters_path))
    probes.install(counters)
    create_server = server_module.create_server

    def create_traced_server(*args, **kwargs):
        server = create_server(*args, **kwargs)
        probes.install_http(counters, server)
        return server

    server_module.create_server = create_traced_server
    return cli.main(["serve", *serve_args])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2:]))
