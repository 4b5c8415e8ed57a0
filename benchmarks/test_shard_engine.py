"""Engine benchmark — precompiled artifact vs runtime encoding.

Runs the comparison on the hospital-x-like smoke dataset (runtime
encoding with cold caches vs the precompiled engine), writes
``BENCH_shard.json`` at the repo root, and asserts the acceptance
gates: ≥2× link throughput for the precompiled engine over the
runtime-encoding baseline, a lower CR+ED p50, and ranking equivalence
with ≤1e-9 log-prob deltas.
"""

import json
from pathlib import Path

import pytest

from repro.eval.experiments import SMALL
from repro.eval.experiments.shard_scaling import run_shard_scaling

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_shard.json"


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    return run_shard_scaling(
        scale=SMALL,
        seed=2018,
        k=10,
        queries_per_point=40,
        artifact_dir=str(tmp_path_factory.mktemp("bench") / "artifact"),
    )


def test_engine_at_least_2x_throughput(once, report):
    data = once(lambda: report)
    BENCH_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    assert data["speedup_throughput"] >= 2.0, data


def test_precompiled_cr_ed_p50_beats_runtime_encoding(once, report):
    once(lambda: None)
    assert report["cr_ed_p50_improvement"] > 0.0, report["modes"]


def test_engine_rankings_equivalent(once, report):
    once(lambda: None)
    assert report["rankings_identical"], report
    assert report["max_abs_log_prob_delta"] <= 1e-9, report
