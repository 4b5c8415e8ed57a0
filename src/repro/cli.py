"""Command-line interface: ``python -m repro <command>``.

Ten commands cover the deployment lifecycle:

* ``generate`` — synthesise a dataset bundle to a directory
  (ontology.json, kb.json, queries.jsonl);
* ``train`` — pre-train embeddings + train COM-AID on a generated
  dataset, saving a complete pipeline directory (``--run-dir`` also
  records per-epoch telemetry for ``repro runs``);
* ``compile`` — precompile every concept's encoder states, structure
  memories, and Phase-I index into a checksummed artifact directory
  that ``link``/``serve`` can mount via ``--artifact-dir``;
* ``link`` — load a saved pipeline and link one or more queries;
* ``trace`` — link queries with tracing forced on and print each
  request's span tree (the offline twin of ``GET /v1/traces``); with
  ``--file`` it renders traces captured from a running server instead,
  including stitched multi-process trees (worker ``[pid N]`` spans,
  queue-wait/fusion/dispatch);
* ``top`` — one ``top``-style snapshot of a running serving tier:
  rolling SLO window (availability, burn rate, p99 vs deadline),
  admission-queue and shed counters, and the per-worker slot table;
* ``evaluate`` — load a saved pipeline and score it against a
  generated dataset's ground-truth queries;
* ``serve`` — load a saved pipeline and run the long-lived HTTP
  linking service (micro-batching, bounded caches, metrics, traces);
* ``runs`` — list training-run telemetry directories, or diff two
  runs epoch by epoch;
* ``verify-pipeline`` — check a saved pipeline's (and/or a compiled
  artifact's, via ``--artifact``) manifest and per-file checksums
  without loading the model;
* ``lifecycle`` — run the closed-loop model-lifecycle drill: pool
  uncertain queries off live traffic, resolve them against ground
  truth, retrain, recompile, and blue/green hot-swap under client
  load, printing a JSON report (exit 1 if the swap failed or dropped
  requests).

``link`` and ``serve`` accept ``--config FILE``: a JSON file shaped
like :meth:`repro.core.config.RuntimeConfig.to_dict` output.  Flags
layered on top win, but only when they are moved off their defaults —
a flag left at its default defers to the file.

Example session::

    python -m repro generate --dataset hospital-x-like --out data/ --seed 7
    python -m repro train --data data/ --out model/ --dim 24 --epochs 8 \\
        --run-dir runs/
    python -m repro compile --model model/ --out artifact/
    python -m repro link --model model/ "ckd 5" "fe def anemia"
    python -m repro trace --model model/ "ckd 5"
    python -m repro runs --dir runs/
    python -m repro evaluate --model model/ --data data/ --limit 100
    python -m repro serve --model model/ --artifact-dir artifact/ \\
        --workers 2 --port 8080 --log-json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.config import (
    SHED_POLICIES,
    ComAidConfig,
    LinkerConfig,
    RuntimeConfig,
    TenantConfig,
    TrainingConfig,
)
from repro.core.persistence import (
    load_pipeline,
    save_pipeline,
    verify_pipeline,
)
from repro.core.trainer import ComAidTrainer
from repro.datasets.generator import LinkedQuery
from repro.datasets.registry import get_dataset_builder
from repro.embeddings.cbow import CbowConfig
from repro.embeddings.pretrain import pretrain_word_vectors
from repro.eval.metrics import mean_reciprocal_rank, top1_accuracy
from repro.kb.corpus import SnippetCorpus
from repro.kb.knowledge_base import KnowledgeBase
from repro.ontology.loaders import load_ontology_json, save_ontology_json
from repro.utils.errors import ReproError

#: argparse defaults for the flags that can also come from ``--config``.
#: Registered into the parser *and* consulted when layering flags over
#: the file, so the two can never drift: a flag still sitting at its
#: default defers to the config file.
_LINKER_FLAG_DEFAULTS = {"k": 20, "cache_size": 4096}
_SERVING_FLAG_DEFAULTS = {
    "host": "127.0.0.1",
    "port": 8080,
    "max_batch_size": 8,
    "batch_wait_ms": 2.0,
    "request_timeout": 30.0,
    "trace_sample": 1.0,
    "trace_buffer": 64,
    "workers": 0,
    "admission_queue": 256,
    "deadline_ms": 0.0,
    "shed_policy": "reject_new",
    "slo_window": 60.0,
    "slo_availability": 0.999,
}

#: argparse dest → config dataclass field, where the two differ.
_FLAG_TO_FIELD = {
    "cache_size": "encoding_cache_size",
    "request_timeout": "request_timeout_s",
    "trace_sample": "trace_sample_rate",
    "slo_window": "slo_window_s",
}


def _flag_overrides(
    args: argparse.Namespace, defaults: dict
) -> dict:
    """Flags moved off their registered defaults, keyed by config field."""
    overrides = {}
    for dest, default in defaults.items():
        value = getattr(args, dest, default)
        if value != default:
            overrides[_FLAG_TO_FIELD.get(dest, dest)] = value
    return overrides


def _runtime_config(args: argparse.Namespace) -> RuntimeConfig:
    """The layered runtime config: ``--config`` file under flag overrides.

    Every command that needs a :class:`LinkerConfig` or
    :class:`ServingConfig` builds it here, so raw flag/file values pass
    through exactly one validation path (``RuntimeConfig``).
    """
    if getattr(args, "config", None):
        runtime = RuntimeConfig.from_file(args.config)
    else:
        runtime = RuntimeConfig()
    linker_overrides = _flag_overrides(args, _LINKER_FLAG_DEFAULTS)
    if getattr(args, "artifact_dir", None) is not None:
        linker_overrides["artifact_dir"] = args.artifact_dir
    if getattr(args, "retrieval_mode", None) is not None:
        import dataclasses

        linker_overrides["retrieval"] = dataclasses.replace(
            runtime.linker.retrieval, mode=args.retrieval_mode
        )
    if linker_overrides:
        runtime = runtime.replace_section("linker", **linker_overrides)
    if hasattr(args, "host"):  # serve-only flags
        serving_overrides = _flag_overrides(args, _SERVING_FLAG_DEFAULTS)
        if args.no_warm:
            serving_overrides["warm_on_start"] = False
        if serving_overrides:
            runtime = runtime.replace_section("serving", **serving_overrides)
    return runtime


def _cmd_generate(args: argparse.Namespace) -> int:
    builder = get_dataset_builder(args.dataset)
    bundle = builder(rng=args.seed, query_count=args.queries)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_ontology_json(bundle.ontology, out / "ontology.json")
    bundle.kb.save_json(out / "kb.json")
    with open(out / "queries.jsonl", "w", encoding="utf-8") as handle:
        for query in bundle.queries:
            handle.write(
                json.dumps(
                    {"text": query.text, "cid": query.cid,
                     "channels": list(query.channels)}
                )
                + "\n"
            )
    with open(out / "corpus.jsonl", "w", encoding="utf-8") as handle:
        for snippet in bundle.corpus:
            handle.write(
                json.dumps({"text": snippet.text, "cid": snippet.cid}) + "\n"
            )
    print(f"wrote dataset to {out}: {bundle.summary()}")
    return 0


def _load_dataset_dir(path: Path):
    ontology = load_ontology_json(path / "ontology.json")
    kb = KnowledgeBase.load_json(ontology, path / "kb.json")
    corpus = SnippetCorpus()
    corpus_file = path / "corpus.jsonl"
    if corpus_file.exists():
        with open(corpus_file, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                corpus.add(record["text"], cid=record.get("cid"))
    queries: List[LinkedQuery] = []
    queries_file = path / "queries.jsonl"
    if queries_file.exists():
        with open(queries_file, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                queries.append(
                    LinkedQuery(
                        text=record["text"],
                        cid=record["cid"],
                        channels=tuple(record.get("channels", ())),
                    )
                )
    return ontology, kb, corpus, queries


def _cmd_train(args: argparse.Namespace) -> int:
    data = Path(args.data)
    ontology, kb, corpus, _ = _load_dataset_dir(data)
    vectors = None
    if not args.no_pretrain:
        if len(corpus) == 0:
            print("warning: no corpus.jsonl found; skipping pre-training")
        else:
            vectors = pretrain_word_vectors(
                corpus,
                CbowConfig(
                    dim=args.dim, window=4, epochs=args.cbow_epochs,
                    negatives=10, subsample=3e-3,
                ),
                rng=args.seed,
            )
    trainer = ComAidTrainer(
        ComAidConfig(dim=args.dim, beta=args.beta),
        TrainingConfig(
            epochs=args.epochs, batch_size=args.batch_size,
            optimizer="adagrad", learning_rate=args.learning_rate,
            sampled_softmax=args.sampled_softmax,
        ),
        rng=args.seed,
    )
    model = trainer.fit(
        kb,
        word_vectors=vectors,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        resume_from=args.resume,
        run_dir=args.run_dir,
        run_id=args.run_id,
    )
    # Provenance lands in the pipeline manifest (and /metrics): which
    # seed produced the deployed weights, and whether training resumed
    # from a checkpoint rather than running uninterrupted.
    metadata = {
        "seed": args.seed,
        "epochs": args.epochs,
        "resumed_from": str(args.resume) if args.resume else None,
        "checkpoint_dir": (
            str(args.checkpoint_dir) if args.checkpoint_dir else None
        ),
    }
    out = save_pipeline(
        args.out, model, ontology, kb=kb, word_vectors=vectors,
        metadata=metadata,
    )
    print(
        f"trained on {trainer.history.examples} pairs "
        f"(final loss {trainer.history.final_loss():.3f}, "
        f"{trainer.history.seconds:.0f}s); saved pipeline to {out}"
    )
    return 0


def _cmd_verify_pipeline(args: argparse.Namespace) -> int:
    if not args.model and not args.artifact:
        print(
            "error: provide --model and/or --artifact to verify",
            file=sys.stderr,
        )
        return 2
    if args.model:
        manifest = verify_pipeline(args.model)
        files = manifest.get("files", {})
        total = sum(int(entry.get("bytes", 0)) for entry in files.values())
        print(
            f"pipeline {args.model} OK: {len(files)} files, "
            f"{total} bytes, all checksums match"
        )
        metadata = manifest.get("metadata") or {}
        if metadata:
            print(f"  metadata: {json.dumps(metadata, sort_keys=True)}")
    if args.artifact:
        from repro.engine.compile import verify_artifact

        manifest = verify_artifact(args.artifact)
        files = manifest.get("files", {})
        total = sum(int(entry.get("bytes", 0)) for entry in files.values())
        header = json.loads(
            (Path(args.artifact) / "artifact.json").read_text(
                encoding="utf-8"
            )
        )
        indexes = sorted(header.get("retrieval") or {}) or ["none"]
        print(
            f"artifact {args.artifact} OK: {len(files)} files, "
            f"{total} bytes, manifest + per-index checksums match "
            f"(indexes={','.join(indexes)})"
        )
    return 0


def _cmd_lifecycle(args: argparse.Namespace) -> int:
    """Closed-loop lifecycle drill: pool → retrain → recompile → swap."""
    from repro.eval.experiments.lifecycle_drill import run_lifecycle_drill

    workdir = Path(args.workdir) if args.workdir else None
    report = run_lifecycle_drill(
        scale=args.scale,
        seed=args.seed,
        workdir=workdir,
        clients=args.clients,
        retrain_epochs=args.retrain_epochs,
    )
    print(json.dumps(report, indent=2, sort_keys=True, default=str))
    swap_window = report["swap_window"]
    ok = (
        report["promoted"]
        and report["fingerprint_changed"]
        and swap_window["failures"] == 0
        and swap_window["degraded"] == 0
    )
    return 0 if ok else 1


def _cmd_compile(args: argparse.Namespace) -> int:
    # Imported here: only this command needs the engine's compiler.
    from repro.engine.compile import compile_artifact

    model, ontology, kb, _, _ = load_pipeline(args.model)
    target = compile_artifact(
        args.out,
        model,
        ontology,
        kb=kb,
        index_aliases=not args.no_aliases,
        metadata={"pipeline": str(args.model)},
        index=args.index,
        index_seed=args.index_seed,
    )
    header = json.loads((target / "artifact.json").read_text(encoding="utf-8"))
    indexes = sorted(header.get("retrieval", {})) or ["none"]
    print(
        f"compiled {header['concepts']} concepts "
        f"(dim {header['dim']}, beta {header['beta']}, "
        f"aliases={not args.no_aliases}, "
        f"indexes={','.join(indexes)}) to {target}"
    )
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    runtime = _runtime_config(args)
    _, ontology, _, _, linker = load_pipeline(args.model, runtime.linker)
    for query in args.queries:
        result = linker.link(query)
        print(f"query: {query!r}")
        if result.rewrites:
            rewrites = ", ".join(
                f"{r.original}->{r.replacement}" for r in result.rewrites
            )
            print(f"  rewrites: {rewrites}")
        if not result.ranked:
            print("  (no candidates)")
            continue
        for candidate in result.ranked[: args.top]:
            description = ontology.get(candidate.cid).description
            print(
                f"  {candidate.cid:<10} logp={candidate.log_prob:8.2f}  "
                f"{description}"
            )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import Tracer, format_trace

    if args.file:
        return _print_trace_file(Path(args.file), format_trace)
    if not args.model or not args.queries:
        print(
            "error: provide --model and queries, or --file to render "
            "captured traces",
            file=sys.stderr,
        )
        return 2
    _, ontology, _, _, linker = load_pipeline(
        args.model, LinkerConfig(k=args.k)
    )
    tracer = Tracer(sample_rate=1.0, capacity=max(len(args.queries), 1))
    for query in args.queries:
        root = tracer.start_trace("cli.link", query=query)
        with root:
            result = linker.link(query)
            root.set_tag("results", len(result.ranked))
            if result.degraded:
                root.set_tag("degraded", True)
                root.set_tag("degraded_reason", result.degraded_reason)
        trace_dict = tracer.find(root.request_id)
        if trace_dict is not None:
            print(format_trace(trace_dict))
        top = result.ranked[0] if result.ranked else None
        if top is not None:
            description = ontology.get(top.cid).description
            print(f"  -> {top.cid} logp={top.log_prob:.2f}  {description}")
        else:
            print("  -> (no candidates)")
        print()
    return 0


def _print_trace_file(path: Path, format_trace) -> int:
    """Render traces captured from ``GET /v1/traces`` (or one trace dict).

    This is how multi-process traces reach the offline printer: scrape
    the serving tier's ring buffer to a file, render it here.  The
    stitched trees print as one tree per request — worker-side spans
    show their ``[pid N]`` origin, queue-wait/fusion/dispatch spans
    appear in place.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot read {path}: {error}", file=sys.stderr)
        return 1
    if isinstance(payload, dict) and "spans" in payload:
        traces = [payload]
    elif isinstance(payload, dict):
        traces = payload.get("traces") or []
    elif isinstance(payload, list):
        traces = payload
    else:
        traces = []
    if not traces:
        print(f"no traces in {path}", file=sys.stderr)
        return 1
    for trace_dict in traces:
        print(format_trace(trace_dict))
        print()
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """One ``top``-style snapshot of a running serving tier."""
    import urllib.error
    import urllib.request

    base = args.url.rstrip("/")
    try:
        with urllib.request.urlopen(
            base + "/v1/metrics", timeout=args.timeout
        ) as response:
            snapshot = json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, json.JSONDecodeError) as error:
        print(f"error: cannot fetch {base}/v1/metrics: {error}",
              file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(snapshot, indent=2, sort_keys=True, default=str))
        return 0
    for line in format_top(snapshot, base):
        print(line)
    return 0


def format_top(snapshot: dict, origin: str = "") -> List[str]:
    """The ``repro top`` lines for one ``/v1/metrics`` snapshot.

    Pure formatting (testable offline): SLO window, request counters,
    admission-queue state, and the per-worker slot table when the
    multi-process front-end is present.
    """
    lines: List[str] = []
    state = "ready" if snapshot.get("ready") else "NOT READY"
    lines.append(
        f"repro top — {origin or 'snapshot'} "
        f"(uptime {snapshot.get('uptime_seconds', 0.0):.0f}s, {state})"
    )
    slo = snapshot.get("slo") or {}
    if slo:
        availability = slo.get("availability", 1.0) * 100.0
        objective = slo.get("availability_objective", 0.0) * 100.0
        burn = slo.get("error_budget_burn_rate", 0.0)
        p99_ms = slo.get("p99_s", 0.0) * 1e3
        slo_line = (
            f"SLO {slo.get('window_s', 0):.0f}s window: "
            f"availability {availability:.2f}% "
            f"(objective {objective:.2f}%, burn {burn:.2f}x)  "
            f"p99 {p99_ms:.1f}ms"
        )
        deadline_ms = slo.get("deadline_ms") or 0.0
        if deadline_ms:
            hit = slo.get("deadline_hit_ratio", 0.0) * 100.0
            slo_line += f"  deadline {deadline_ms:.0f}ms (late {hit:.1f}%)"
        lines.append(slo_line)
        lines.append(
            f"window requests: {slo.get('ok', 0)} ok / "
            f"{slo.get('shed', 0)} shed / {slo.get('errors', 0)} errors"
        )
    frontend = snapshot.get("frontend") or {}
    if frontend:
        lines.append(
            f"queue depth {frontend.get('queue_depth', 0)}/"
            f"{frontend.get('queue_bound', 0)} "
            f"({frontend.get('shed_policy', '?')})  "
            f"inflight {frontend.get('inflight_jobs', 0)}  "
            f"sheds: reject_new={frontend.get('shed_queue_full', 0)} "
            f"drop_oldest={frontend.get('shed_dropped_oldest', 0)} "
            f"deadline={frontend.get('shed_deadline', 0)}  "
            f"deaths={frontend.get('worker_deaths', 0)} "
            f"redispatches={frontend.get('redispatches', 0)}"
        )
        workers = frontend.get("workers") or []
        if workers:
            lines.append(
                f"{'worker':<7}{'pid':<8}{'ready':<6}{'jobs':>6}"
                f"{'queries':>9}{'errors':>8}{'degraded':>10}"
                f"{'respawns':>10}{'busy_s':>9}"
            )
            for entry in workers:
                lines.append(
                    f"{entry.get('worker_id', '?'):<7}"
                    f"{entry.get('pid', 0):<8}"
                    f"{'yes' if entry.get('ready') else 'no':<6}"
                    f"{entry.get('jobs', 0):>6}"
                    f"{entry.get('queries', 0):>9}"
                    f"{entry.get('errors', 0):>8}"
                    f"{entry.get('degraded', 0):>10}"
                    f"{entry.get('respawns', 0):>10}"
                    f"{entry.get('busy_s', 0.0):>9.2f}"
                )
    return lines


def _cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs.runlog import diff_runs, list_runs, load_run

    if args.diff:
        run_a = load_run(Path(args.dir) / args.diff[0])
        run_b = load_run(Path(args.dir) / args.diff[1])
        report = diff_runs(run_a, run_b)
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
            return 0
        print(f"run A: {report['run_a']} ({report['epochs_a']} epochs)")
        print(f"run B: {report['run_b']} ({report['epochs_b']} epochs)")
        for entry in report["per_epoch"]:
            delta = entry.get("delta")
            delta_text = f"{delta:+.4f}" if delta is not None else "n/a"
            print(
                f"  epoch {entry['epoch']:>3}: "
                f"A={entry['loss_a']:.4f} B={entry['loss_b']:.4f} "
                f"delta={delta_text}"
            )
        if "final_loss_delta" in report:
            print(f"final loss delta (B-A): {report['final_loss_delta']:+.4f}")
        return 0

    runs = list_runs(args.dir)
    if not runs:
        print(f"no runs under {args.dir}")
        return 0
    if args.json:
        print(
            json.dumps(
                [
                    {
                        "run_id": run.run_id,
                        "epochs": len(run.epochs),
                        "final_loss": run.final_loss,
                        "seconds": run.seconds,
                        "tokens_per_s": run.mean_tokens_per_s,
                        "completed": run.completed,
                    }
                    for run in runs
                ],
                indent=2,
            )
        )
        return 0
    print(
        f"{'run':<28} {'epochs':>6} {'final_loss':>10} "
        f"{'seconds':>8} {'tok/s':>10} status"
    )
    for run in runs:
        loss = f"{run.final_loss:.4f}" if run.final_loss is not None else "-"
        seconds = f"{run.seconds:.1f}" if run.seconds is not None else "-"
        rate = (
            f"{run.mean_tokens_per_s:.0f}"
            if run.mean_tokens_per_s is not None
            else "-"
        )
        status = "complete" if run.completed else "partial"
        print(
            f"{run.run_id:<28} {len(run.epochs):>6} {loss:>10} "
            f"{seconds:>8} {rate:>10} {status}"
        )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    _, _, _, _, linker = load_pipeline(args.model, LinkerConfig(k=args.k))
    _, _, _, queries = _load_dataset_dir(Path(args.data))
    if not queries:
        print("no queries.jsonl in the dataset directory", file=sys.stderr)
        return 1
    if args.limit:
        queries = queries[: args.limit]
    ranked_lists = [
        [c.cid for c in linker.link(query.text).ranked] for query in queries
    ]
    gold = [query.cid for query in queries]
    accuracy = top1_accuracy(ranked_lists, gold)
    mrr = mean_reciprocal_rank(ranked_lists, gold)
    print(f"queries={len(queries)} accuracy={accuracy:.4f} mrr={mrr:.4f}")
    return 0


def _apply_tenant_flags(
    args: argparse.Namespace, runtime: RuntimeConfig
) -> Tuple[RuntimeConfig, Optional[str]]:
    """Fold repeated ``--artifact NAME=DIR`` pairs into the config.

    Returns ``(runtime, error)``; a non-``None`` error names the
    conflicting flags.  Tenants may come from exactly one place: the
    config file's ``tenants`` section or the ``--artifact`` pairs —
    and the multi-tenant tier is threaded-only, so ``--workers`` and
    the single-tenant ``--artifact-dir`` are refused alongside either.
    """
    pairs = getattr(args, "tenant_artifacts", None) or []
    if pairs and runtime.tenants.enabled:
        return runtime, (
            "tenants are declared twice: drop --artifact NAME=DIR or the "
            "config file's 'tenants' section (--config); use exactly one"
        )
    if pairs and getattr(args, "artifact_dir", None) is not None:
        return runtime, (
            "--artifact NAME=DIR (multi-tenant) conflicts with "
            "--artifact-dir DIR (single-tenant); use one or the other"
        )
    if pairs:
        definitions: Dict[str, TenantConfig] = {}
        for pair in pairs:
            name, sep, directory = pair.partition("=")
            if not sep or not name or not directory:
                return runtime, (
                    f"--artifact expects NAME=DIR, got {pair!r}"
                )
            if name in definitions:
                return runtime, (
                    f"tenant {name!r} is declared twice via --artifact"
                )
            definitions[name] = TenantConfig(artifact_dir=directory)
        runtime = runtime.replace_section(
            "tenants", definitions=definitions, default=next(iter(definitions))
        )
    if runtime.tenants.enabled and runtime.serving.workers > 0:
        return runtime, (
            "multi-tenant serving runs on the threaded tier; --workers "
            "(or the config's serving.workers) must be 0 when tenants "
            "are declared"
        )
    return runtime, None


def _serve_multi_tenant(args: argparse.Namespace, runtime: RuntimeConfig) -> int:
    """``repro serve`` with a populated ``tenants`` section."""
    from repro.serving.server import create_server, run_server
    from repro.tenancy import (
        MultiTenantLinkingService,
        TenantRegistry,
        pipeline_loader,
    )

    config = runtime.serving
    registry = TenantRegistry(
        runtime.tenants,
        serving=config,
        linker_config=runtime.linker,
        loader=pipeline_loader(args.model),
    )
    service = MultiTenantLinkingService(registry)
    server = create_server(service, host=config.host, port=config.port)
    service.start()
    print(
        f"serving on http://{config.host}:{server.port} "
        f"(model={args.model}, tenants={registry.names}, "
        f"default={runtime.tenants.default})",
        flush=True,
    )
    run_server(server)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so the four offline commands never pay for (or
    # depend on) the serving stack.
    from repro.serving.server import create_server, run_server
    from repro.serving.service import LinkingService

    if args.log_json:
        from repro.obs.logjson import configure_json_logging

        configure_json_logging()
    runtime = _runtime_config(args)
    runtime, tenant_error = _apply_tenant_flags(args, runtime)
    if tenant_error is not None:
        print(f"error: {tenant_error}", file=sys.stderr)
        return 2
    if runtime.tenants.enabled:
        return _serve_multi_tenant(args, runtime)
    config = runtime.serving
    if config.workers > 0:
        import dataclasses

        from repro.serving.service import ProcPoolLinkingService

        # Workers mount the compiled artifact read-only via mmap (when
        # one is configured) so N processes share one set of page-cache
        # pages.  The pipeline loads once here, pre-fork; the closure's
        # captures reach the children copy-on-write.
        worker_config = dataclasses.replace(
            runtime.linker,
            mmap_artifact=runtime.linker.artifact_dir is not None,
        )
        _, ontology, _, _, linker = load_pipeline(args.model, worker_config)
        service = ProcPoolLinkingService(lambda: linker, ontology, config)
    else:
        _, _, _, _, linker = load_pipeline(args.model, runtime.linker)
        service = LinkingService(linker, config)
    server = create_server(service, host=config.host, port=config.port)
    service.start()
    # One parseable line before blocking, so wrappers (and the smoke
    # test) can discover an ephemeral port and start polling /readyz.
    print(
        f"serving on http://{config.host}:{server.port} "
        f"(model={args.model}, warm={config.warm_on_start}, "
        f"workers={config.workers})",
        flush=True,
    )
    run_server(server)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="NCL / COM-AID command-line interface"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="synthesise a dataset bundle into a directory"
    )
    generate.add_argument(
        "--dataset", default="hospital-x-like",
        help="dataset preset (hospital-x-like | mimic-iii-like | snomed-like)",
    )
    generate.add_argument("--out", required=True, help="output directory")
    generate.add_argument("--seed", type=int, default=2018)
    generate.add_argument("--queries", type=int, default=400)
    generate.set_defaults(func=_cmd_generate)

    train = commands.add_parser(
        "train", help="pre-train + train COM-AID on a generated dataset"
    )
    train.add_argument("--data", required=True, help="generated dataset dir")
    train.add_argument("--out", required=True, help="pipeline output dir")
    train.add_argument("--dim", type=int, default=24)
    train.add_argument("--beta", type=int, default=2)
    train.add_argument("--epochs", type=int, default=8)
    train.add_argument("--cbow-epochs", type=int, default=15)
    train.add_argument("--batch-size", type=int, default=8)
    train.add_argument("--learning-rate", type=float, default=0.1)
    train.add_argument("--sampled-softmax", type=int, default=0)
    train.add_argument("--no-pretrain", action="store_true")
    train.add_argument("--seed", type=int, default=5)
    train.add_argument(
        "--checkpoint-dir", default=None,
        help="write atomic training checkpoints into this directory",
    )
    train.add_argument(
        "--checkpoint-every", type=int, default=0,
        help="checkpoint every N epochs (0 = only when resuming support "
        "is unused); requires --checkpoint-dir",
    )
    train.add_argument(
        "--resume", default=None,
        help="resume from a checkpoint directory (or a checkpoint root, "
        "which picks the latest epoch)",
    )
    train.add_argument(
        "--run-dir", default=None,
        help="record per-epoch telemetry under this directory "
        "(listable with `repro runs`)",
    )
    train.add_argument(
        "--run-id", default=None,
        help="run directory name under --run-dir (default: timestamped)",
    )
    train.set_defaults(func=_cmd_train)

    compile_cmd = commands.add_parser(
        "compile",
        help="precompile concept encodings + Phase-I index into an artifact",
    )
    compile_cmd.add_argument(
        "--model", required=True, help="saved pipeline dir"
    )
    compile_cmd.add_argument(
        "--out", required=True, help="artifact output directory"
    )
    compile_cmd.add_argument(
        "--no-aliases", action="store_true",
        help="index canonical descriptions only (must match the linker's "
        "index_aliases at serve time)",
    )
    compile_cmd.add_argument(
        "--index", choices=["none", "sparse", "dense", "both"],
        default="both",
        help="also compile the sublinear retrieval indexes into the "
        "artifact (default: both; 'none' keeps the pre-retrieval layout)",
    )
    compile_cmd.add_argument(
        "--index-seed", type=int, default=0,
        help="k-means seed for the dense (IVF) index",
    )
    compile_cmd.set_defaults(func=_cmd_compile)

    link = commands.add_parser("link", help="link queries with a saved pipeline")
    link.add_argument("--model", required=True, help="saved pipeline dir")
    link.add_argument(
        "--config", default=None,
        help="JSON RuntimeConfig file (flags moved off their defaults win)",
    )
    link.add_argument("--k", type=int, default=_LINKER_FLAG_DEFAULTS["k"])
    link.add_argument("--top", type=int, default=3)
    link.add_argument(
        "--artifact-dir", default=None,
        help="serve from a compiled concept artifact (`repro compile`)",
    )
    link.add_argument(
        "--retrieval-mode",
        choices=["exact", "sparse", "dense", "hybrid"], default=None,
        help="Phase-I retrieval strategy (non-exact modes require "
        "--artifact-dir; dense/hybrid need `repro compile --index`)",
    )
    link.add_argument("queries", nargs="+", help="query text(s)")
    link.set_defaults(func=_cmd_link)

    trace = commands.add_parser(
        "trace",
        help="link queries with tracing forced on and print span trees",
    )
    trace.add_argument("--model", default=None, help="saved pipeline dir")
    trace.add_argument("--k", type=int, default=20)
    trace.add_argument(
        "--file", default=None,
        help="render traces captured from GET /v1/traces (JSON file) "
        "instead of linking — stitched multi-process trees print with "
        "their worker [pid N] and queue-wait spans",
    )
    trace.add_argument("queries", nargs="*", help="query text(s)")
    trace.set_defaults(func=_cmd_trace)

    top = commands.add_parser(
        "top",
        help="one top-style snapshot of a running serving tier "
        "(SLO window, admission queue, per-worker table)",
    )
    top.add_argument(
        "--url", default="http://127.0.0.1:8080",
        help="base URL of the serving instance",
    )
    top.add_argument("--timeout", type=float, default=5.0)
    top.add_argument(
        "--json", action="store_true",
        help="print the raw /v1/metrics snapshot instead of the table",
    )
    top.set_defaults(func=_cmd_top)

    runs = commands.add_parser(
        "runs", help="list or diff training-run telemetry directories"
    )
    runs.add_argument(
        "--dir", required=True, help="runs root (the train --run-dir)"
    )
    runs.add_argument(
        "--diff", nargs=2, metavar=("RUN_A", "RUN_B"), default=None,
        help="compare two run ids epoch by epoch",
    )
    runs.add_argument(
        "--json", action="store_true", help="emit JSON instead of a table"
    )
    runs.set_defaults(func=_cmd_runs)

    evaluate = commands.add_parser(
        "evaluate", help="score a saved pipeline on a dataset's queries"
    )
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--k", type=int, default=20)
    evaluate.add_argument("--limit", type=int, default=0)
    evaluate.set_defaults(func=_cmd_evaluate)

    serve = commands.add_parser(
        "serve", help="run the HTTP linking service on a saved pipeline"
    )
    serve.add_argument("--model", required=True, help="saved pipeline dir")
    serve.add_argument(
        "--config", default=None,
        help="JSON RuntimeConfig file (flags moved off their defaults win)",
    )
    serve.add_argument("--host", default=_SERVING_FLAG_DEFAULTS["host"])
    serve.add_argument(
        "--port", type=int, default=_SERVING_FLAG_DEFAULTS["port"],
        help="0 picks an ephemeral port",
    )
    serve.add_argument("--k", type=int, default=_LINKER_FLAG_DEFAULTS["k"])
    serve.add_argument(
        "--cache-size", type=int,
        default=_LINKER_FLAG_DEFAULTS["cache_size"],
        help="encoding LRU capacity (0 = unbounded)",
    )
    serve.add_argument(
        "--artifact-dir", default=None,
        help="serve from a compiled concept artifact (`repro compile`)",
    )
    serve.add_argument(
        "--artifact", action="append", default=None, metavar="NAME=DIR",
        dest="tenant_artifacts",
        help="declare tenant NAME serving compiled artifact DIR over the "
        "shared --model pipeline (repeatable; enables the multi-tenant "
        "tier; the first pair is the default tenant)",
    )
    serve.add_argument(
        "--retrieval-mode",
        choices=["exact", "sparse", "dense", "hybrid"], default=None,
        help="Phase-I retrieval strategy (non-exact modes require "
        "--artifact-dir; dense/hybrid need `repro compile --index`)",
    )
    serve.add_argument(
        "--max-batch-size", type=int,
        default=_SERVING_FLAG_DEFAULTS["max_batch_size"],
        help="micro-batcher flush threshold",
    )
    serve.add_argument(
        "--batch-wait-ms", type=float,
        default=_SERVING_FLAG_DEFAULTS["batch_wait_ms"],
        help="micro-batcher deadline in milliseconds (0 = no coalescing)",
    )
    serve.add_argument(
        "--request-timeout", type=float,
        default=_SERVING_FLAG_DEFAULTS["request_timeout"],
        help="per-request budget in seconds (exceeded -> HTTP 504)",
    )
    serve.add_argument(
        "--no-warm", action="store_true",
        help="skip warm-up; readiness flips immediately, caches fill lazily",
    )
    serve.add_argument(
        "--trace-sample", type=float,
        default=_SERVING_FLAG_DEFAULTS["trace_sample"],
        help="fraction of requests traced into GET /v1/traces "
        "(deterministic; 0 disables tracing)",
    )
    serve.add_argument(
        "--trace-buffer", type=int,
        default=_SERVING_FLAG_DEFAULTS["trace_buffer"],
        help="how many finished traces the ring buffer retains",
    )
    serve.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON logs (request-ID correlated) on stderr",
    )
    serve.add_argument(
        "--workers", type=int,
        default=_SERVING_FLAG_DEFAULTS["workers"],
        help="forked worker processes (0 = in-process threaded tier; "
        ">= 1 enables the GIL-free multi-process tier)",
    )
    serve.add_argument(
        "--admission-queue", type=int,
        default=_SERVING_FLAG_DEFAULTS["admission_queue"],
        help="bound on queued requests before shedding (0 = unbounded)",
    )
    serve.add_argument(
        "--deadline-ms", type=float,
        default=_SERVING_FLAG_DEFAULTS["deadline_ms"],
        help="per-request queueing budget in milliseconds; requests "
        "still queued past it are shed instead of served late "
        "(0 = no deadline)",
    )
    serve.add_argument(
        "--shed-policy", choices=list(SHED_POLICIES),
        default=_SERVING_FLAG_DEFAULTS["shed_policy"],
        help="what to do when the admission queue is full: reject the "
        "new request, or drop the oldest queued one",
    )
    serve.add_argument(
        "--slo-window", type=float,
        default=_SERVING_FLAG_DEFAULTS["slo_window"],
        help="rolling SLO window in seconds (availability / p99 vs "
        "deadline, reported by /v1/metrics and `repro top`)",
    )
    serve.add_argument(
        "--slo-availability", type=float,
        default=_SERVING_FLAG_DEFAULTS["slo_availability"],
        help="availability objective the error-budget burn rate is "
        "computed against (e.g. 0.999)",
    )
    serve.set_defaults(func=_cmd_serve)

    verify = commands.add_parser(
        "verify-pipeline",
        help="check a saved pipeline's (and/or compiled artifact's) "
        "manifest and checksums",
    )
    verify.add_argument(
        "--model", default=None, help="saved pipeline dir"
    )
    verify.add_argument(
        "--artifact", default=None,
        help="compiled artifact dir; additionally re-hashes each "
        "compiled retrieval index against the artifact header",
    )
    verify.set_defaults(func=_cmd_verify_pipeline)

    lifecycle = commands.add_parser(
        "lifecycle",
        help="run the closed-loop model-lifecycle drill (pool -> retrain "
        "-> recompile -> blue/green hot swap under load)",
    )
    lifecycle.add_argument(
        "--scale", choices=["tiny", "small", "default"], default="tiny"
    )
    lifecycle.add_argument("--seed", type=int, default=7)
    lifecycle.add_argument(
        "--workdir", default=None,
        help="directory for the active deployment and candidate "
        "artifacts (default: a temporary directory)",
    )
    lifecycle.add_argument(
        "--clients", type=int, default=2,
        help="closed-loop client threads hammering the swap window",
    )
    lifecycle.add_argument("--retrain-epochs", type=int, default=2)
    lifecycle.set_defaults(func=_cmd_lifecycle)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
