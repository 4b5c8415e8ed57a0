"""Engine benchmark — precompiled artifact vs runtime encoding.

Figure 11 attributes most online cost to ED — encoding concepts on the
request path.  The engine (:mod:`repro.engine`) removes that term by
compiling every concept's encodings offline (``repro compile``) and
serving Phase I/II from the frozen slab.  This runner measures the
end-to-end effect on one query stream through two linkers sharing one
trained model:

* ``runtime_cold`` — the pre-engine path, encoding caches invalidated
  per query (every query pays full ED, the worst honest baseline);
* ``engine`` — the precompiled artifact.

The report records per-phase p50s, link throughput, the equivalence
audit against the runtime path, and ``os.cpu_count()``; the win is
eliminating request-path encoding, and the config labels say exactly
what was compared.
"""

from __future__ import annotations

import os
import statistics
import tempfile
from dataclasses import replace
from typing import Dict, List, Sequence

from repro.core.linker import NeuralConceptLinker
from repro.engine.compile import compile_artifact
from repro.eval.experiments.scale import DEFAULT, ExperimentScale
from repro.eval.harness import build_pipeline
from repro.eval.reporting import emit, format_table
from repro.utils.rng import derive_rng, ensure_rng
from repro.utils.timing import TimingBreakdown

PHASES = ("OR", "CR", "ED", "RT")


def _percentiles(breakdowns: Sequence[TimingBreakdown]) -> Dict[str, float]:
    report: Dict[str, float] = {}
    for phase in PHASES:
        samples = [b.seconds.get(phase, 0.0) for b in breakdowns]
        report[f"{phase}_p50"] = statistics.median(samples) if samples else 0.0
    report["cr_ed_p50"] = report["CR_p50"] + report["ED_p50"]
    return report


def run_shard_scaling(
    scale: ExperimentScale = DEFAULT,
    seed: int = 2018,
    k: int = 10,
    queries_per_point: int = 40,
    dataset: str = "hospital-x-like",
    artifact_dir: str | None = None,
    verbose: bool = True,
) -> Dict[str, object]:
    """Runtime-encoding vs precompiled engine on one pipeline.

    Returns a JSON-ready report: per-mode phase p50s and throughput,
    ``speedup_throughput`` (engine over the runtime cold-cache path), ``cr_ed_p50_improvement`` (positive when
    the precompiled path's CR+ED median is lower), and the equivalence
    audit (``rankings_identical``, ``max_abs_log_prob_delta``).
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
    runtime = pipeline.linker
    directory = artifact_dir or tempfile.mkdtemp(prefix="repro-artifact-")
    compile_artifact(
        directory,
        pipeline.model,
        bundle.ontology,
        kb=bundle.kb,
        index_aliases=runtime.config.index_aliases,
    )
    engine_linker = NeuralConceptLinker(
        pipeline.model,
        bundle.ontology,
        replace(runtime.config, artifact_dir=str(directory)),
        kb=bundle.kb,
        word_vectors=pipeline.word_vectors,
    )

    queries = [query.text for query in bundle.queries[:queries_per_point]]
    modes = {
        "runtime_cold": {
            "linker": runtime,
            "label": "workers=1, runtime encoding, cold cache",
            "cold": True,
        },
        "engine": {
            "linker": engine_linker,
            "label": "workers=1, precompiled artifact",
            "cold": False,
        },
    }
    timings: Dict[str, Dict[str, float]] = {}
    results: Dict[str, List] = {}
    for mode, spec in modes.items():
        linker = spec["linker"]
        breakdowns: List[TimingBreakdown] = []
        outcomes = []
        for query in queries:
            if spec["cold"]:
                linker.invalidate_cache()
            outcome = linker.link(query, k=k)
            outcomes.append(outcome)
            breakdowns.append(outcome.timing)
        report = _percentiles(breakdowns)
        total = sum(
            sum(b.seconds.get(phase, 0.0) for phase in PHASES)
            for b in breakdowns
        )
        report["link_seconds_total"] = total
        report["throughput_qps"] = len(queries) / max(total, 1e-12)
        report["label"] = spec["label"]
        timings[mode] = report
        results[mode] = outcomes

    max_delta = 0.0
    rankings_identical = True
    for left, right in zip(results["runtime_cold"], results["engine"]):
        if [c.cid for c in left.ranked] != [c.cid for c in right.ranked]:
            rankings_identical = False
        for a, b in zip(left.ranked, right.ranked):
            if a.cid == b.cid:
                max_delta = max(max_delta, abs(a.log_prob - b.log_prob))

    engine = timings["engine"]
    baseline = timings["runtime_cold"]
    report: Dict[str, object] = {
        "dataset": dataset,
        "scale": scale.name,
        "seed": seed,
        "k": k,
        "queries": len(queries),
        "cpu_count": os.cpu_count(),
        "modes": timings,
        "speedup_throughput": engine["throughput_qps"]
        / max(baseline["throughput_qps"], 1e-12),
        "cr_ed_p50_improvement": baseline["cr_ed_p50"] - engine["cr_ed_p50"],
        "rankings_identical": rankings_identical,
        "max_abs_log_prob_delta": max_delta,
    }
    if verbose:
        rows = [
            [mode]
            + [round(timings[mode][f"{p}_p50"] * 1e3, 3) for p in PHASES]
            + [round(timings[mode]["throughput_qps"], 1)]
            for mode in modes
        ]
        emit(
            format_table(
                ["mode"] + [f"{p} p50 (ms)" for p in PHASES] + ["qps"],
                rows,
                title=(
                    f"Engine, {dataset} k={k} "
                    f"(throughput x{report['speedup_throughput']:.2f})"
                ),
            )
        )
    return report
