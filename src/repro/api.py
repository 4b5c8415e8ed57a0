"""The stable public API of the NCL reproduction (v1).

``repro.api`` is the one import path downstream code — the bundled
examples, the ``tools/`` scripts, and anything built on this package —
should use.  Everything exported here is covered by the API-surface
snapshot check (``tools/check_api.py``): the surface cannot change
without bumping :data:`API_VERSION`, so an import that works today
keeps working, and a breaking change is an explicit, reviewed event
rather than an accident of refactoring.

Two kinds of exports:

* **Task-level helpers** — :func:`train`, :func:`load_linker`,
  :func:`link`, :func:`link_batch`, :func:`compile_artifact` — the
  five verbs that cover the common train → persist → compile → serve
  lifecycle without touching internal modules.
* **Re-exported building blocks** — the config dataclasses, the model
  and trainer, datasets/embeddings/ontology/KB substrates, baselines,
  metrics, persistence, the concept engine, and the serving layer —
  for code that composes the pieces directly.

Deep imports (``repro.core.linker`` etc.) keep working but are
internal: their layout may change between versions, and importing the
legacy top-level re-exports from ``repro`` itself now emits a
:class:`DeprecationWarning` pointing here.

Exports resolve lazily (PEP 562), so ``from repro.api import
API_VERSION`` costs nothing and circular imports with the serving
layer are impossible.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

#: Public API version.  ``major.minor``: the minor bumps whenever the
#: exported surface changes; the major is the ``/v1`` HTTP route
#: contract.  ``tools/check_api.py`` pins the exported surface to this
#: value.
API_VERSION = "1.6"

#: Lazily resolved re-exports: public name → (module, attribute).
_EXPORTS: Dict[str, Tuple[str, str]] = {
    # configuration
    "ComAidConfig": ("repro.core.config", "ComAidConfig"),
    "TrainingConfig": ("repro.core.config", "TrainingConfig"),
    "LinkerConfig": ("repro.core.config", "LinkerConfig"),
    "RetrievalConfig": ("repro.core.config", "RetrievalConfig"),
    "ServingConfig": ("repro.core.config", "ServingConfig"),
    "LifecycleConfig": ("repro.core.config", "LifecycleConfig"),
    "RuntimeConfig": ("repro.core.config", "RuntimeConfig"),
    "PAPER_DEFAULTS": ("repro.core.config", "PAPER_DEFAULTS"),
    # model, trainer, linker, feedback
    "ComAid": ("repro.core.comaid", "ComAid"),
    "ComAidTrainer": ("repro.core.trainer", "ComAidTrainer"),
    "NeuralConceptLinker": ("repro.core.linker", "NeuralConceptLinker"),
    "LinkResult": ("repro.core.linker", "LinkResult"),
    "RankedConcept": ("repro.core.linker", "RankedConcept"),
    "FeedbackController": ("repro.core.feedback", "FeedbackController"),
    # substrates
    "Concept": ("repro.ontology.concept", "Concept"),
    "Ontology": ("repro.ontology.ontology", "Ontology"),
    "KnowledgeBase": ("repro.kb.knowledge_base", "KnowledgeBase"),
    "SnippetCorpus": ("repro.kb.corpus", "SnippetCorpus"),
    "hospital_x_like": ("repro.datasets", "hospital_x_like"),
    "mimic_iii_like": ("repro.datasets", "mimic_iii_like"),
    "snomed_like": ("repro.datasets", "snomed_like"),
    "CbowConfig": ("repro.embeddings", "CbowConfig"),
    "pretrain_word_vectors": ("repro.embeddings", "pretrain_word_vectors"),
    # baselines
    "Doc2VecLinker": ("repro.baselines", "Doc2VecLinker"),
    "Doc2VecConfig": ("repro.baselines.doc2vec", "Doc2VecConfig"),
    "LrPlusLinker": ("repro.baselines", "LrPlusLinker"),
    "NobleCoderLinker": ("repro.baselines", "NobleCoderLinker"),
    "PkduckLinker": ("repro.baselines", "PkduckLinker"),
    "WmdLinker": ("repro.baselines", "WmdLinker"),
    # evaluation
    "mean_reciprocal_rank": ("repro.eval.metrics", "mean_reciprocal_rank"),
    "top1_accuracy": ("repro.eval.metrics", "top1_accuracy"),
    "format_table": ("repro.eval.reporting", "format_table"),
    # persistence
    "save_pipeline": ("repro.core.persistence", "save_pipeline"),
    "load_pipeline": ("repro.core.persistence", "load_pipeline"),
    "verify_pipeline": ("repro.core.persistence", "verify_pipeline"),
    # concept engine + artifacts
    "ConceptArtifact": ("repro.engine.compile", "ConceptArtifact"),
    "load_artifact": ("repro.engine.compile", "load_artifact"),
    "verify_artifact": ("repro.engine.compile", "verify_artifact"),
    "ShardedConceptEngine": ("repro.engine.shards", "ShardedConceptEngine"),
    # retrieval subsystem
    "InvertedIndex": ("repro.retrieval.inverted", "InvertedIndex"),
    "DenseIndex": ("repro.retrieval.ann", "DenseIndex"),
    "HybridRetriever": ("repro.retrieval.hybrid", "HybridRetriever"),
    # serving
    "LinkingService": ("repro.serving.service", "LinkingService"),
    "create_server": ("repro.serving.server", "create_server"),
    "run_server": ("repro.serving.server", "run_server"),
    # multi-process serving (forked workers over an mmap'd artifact)
    "ProcPoolLinkingService": (
        "repro.serving.service", "ProcPoolLinkingService"
    ),
    "ProcessPool": ("repro.serving.procpool", "ProcessPool"),
    "AsyncFrontend": ("repro.serving.frontend", "AsyncFrontend"),
    "AdmissionQueue": ("repro.serving.frontend", "AdmissionQueue"),
    "ShedError": ("repro.serving.frontend", "ShedError"),
    # model lifecycle (pool → retrain → compile → blue/green swap)
    "LifecycleController": ("repro.lifecycle", "LifecycleController"),
    "ArtifactSwapper": ("repro.lifecycle", "ArtifactSwapper"),
    "ShadowScorer": ("repro.lifecycle", "ShadowScorer"),
    "UncertaintyPool": ("repro.lifecycle", "UncertaintyPool"),
    "LifecycleError": ("repro.lifecycle", "LifecycleError"),
    # observability (cross-process traces, Prometheus exposition, SLOs)
    "Tracer": ("repro.obs.trace", "Tracer"),
    "format_trace": ("repro.obs.trace", "format_trace"),
    "export_trace": ("repro.obs.trace", "export_trace"),
    "graft": ("repro.obs.trace", "graft"),
    "SloTracker": ("repro.obs.slo", "SloTracker"),
    "render_prometheus": ("repro.obs.prom", "render_prometheus"),
    "worker_series": ("repro.obs.prom", "worker_series"),
    "MetricsRegistry": ("repro.serving.metrics", "MetricsRegistry"),
    # multi-tenant serving (tenant registry, routing, cross-ontology map)
    "TenantConfig": ("repro.core.config", "TenantConfig"),
    "TenancyConfig": ("repro.core.config", "TenancyConfig"),
    "TenantRegistry": ("repro.tenancy", "TenantRegistry"),
    "MultiTenantLinkingService": ("repro.tenancy", "MultiTenantLinkingService"),
    "ConceptMapper": ("repro.tenancy", "ConceptMapper"),
    "ConceptMapping": ("repro.tenancy", "ConceptMapping"),
    "pipeline_loader": ("repro.tenancy", "pipeline_loader"),
    "tenant_series": ("repro.obs.prom", "tenant_series"),
    # errors
    "ReproError": ("repro.utils.errors", "ReproError"),
    "TenantError": ("repro.tenancy", "TenantError"),
    "UnknownTenantError": ("repro.tenancy", "UnknownTenantError"),
    "QuotaExceededError": ("repro.tenancy", "QuotaExceededError"),
    "ConfigurationError": ("repro.utils.errors", "ConfigurationError"),
    "DataError": ("repro.utils.errors", "DataError"),
}

__all__ = sorted(
    [
        "API_VERSION",
        "compile_artifact",
        "link",
        "link_batch",
        "load_linker",
        "load_tenants",
        "map_concept",
        "train",
        *_EXPORTS,
    ]
)


def __getattr__(name: str) -> Any:
    """Resolve a re-exported name on first access (PEP 562)."""
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache so later accesses skip this hook
    return value


def __dir__() -> List[str]:
    """Advertise the full lazy surface to ``dir()``/completion."""
    return sorted(set(globals()) | set(__all__))


# -- task-level helpers ------------------------------------------------------


def train(
    kb: "Any",
    model_config: Optional["Any"] = None,
    training_config: Optional["Any"] = None,
    rng: Optional[object] = None,
) -> "Any":
    """Train a COM-AID model over a knowledge base; returns the model.

    Thin wrapper over :class:`repro.core.trainer.ComAidTrainer` with
    defaulted configs — one call from a populated
    :class:`KnowledgeBase` to a trained :class:`ComAid`.
    """
    from repro.core.config import ComAidConfig, TrainingConfig
    from repro.core.trainer import ComAidTrainer

    trainer = ComAidTrainer(
        model_config if model_config is not None else ComAidConfig(),
        training_config if training_config is not None else TrainingConfig(),
        rng=rng,
    )
    return trainer.fit(kb)


def load_linker(
    pipeline_dir: Union[str, "Any"],
    linker_config: Optional["Any"] = None,
    verify: bool = True,
) -> "Any":
    """Load a saved pipeline and return a ready
    :class:`NeuralConceptLinker`.

    ``pipeline_dir`` is a directory written by :func:`save_pipeline`.
    With ``verify`` (the default here — unlike the lower-level loader,
    this is the serving-facing entry point) every artifact is
    checksummed against the manifest first.  ``linker_config`` may set
    ``artifact_dir`` to serve from a compiled artifact via the concept
    engine.
    """
    from repro.core.persistence import load_pipeline

    _, _, _, _, linker = load_pipeline(
        pipeline_dir, linker_config=linker_config, verify=verify
    )
    return linker


def link(
    linker: "Any",
    query: str,
    k: Optional[int] = None,
    tenant: Optional[str] = None,
) -> "Any":
    """Link one query; returns a :class:`LinkResult`.

    ``linker`` is a :class:`NeuralConceptLinker` (or anything with a
    compatible ``link``).  ``tenant`` routes through a multi-tenant
    service from :func:`load_tenants` instead — naming a tenant on a
    plain linker raises :class:`UnknownTenantError`.
    """
    if tenant is not None:
        if not getattr(linker, "multi_tenant", False):
            from repro.tenancy.errors import UnknownTenantError

            raise UnknownTenantError(
                f"tenant {tenant!r} was named but {type(linker).__name__} "
                "is single-tenant; build a MultiTenantLinkingService with "
                "load_tenants()"
            )
        return linker.link(query, k=k, tenant=tenant)
    return linker.link(query, k=k)


def link_batch(
    linker: "Any",
    queries: Sequence[str],
    k: Optional[int] = None,
    tenant: Optional[str] = None,
) -> List["Any"]:
    """Link several queries, amortising concept encodings across them.

    ``tenant`` routes the batch through a multi-tenant service from
    :func:`load_tenants` (see :func:`link`).
    """
    if tenant is not None:
        if not getattr(linker, "multi_tenant", False):
            from repro.tenancy.errors import UnknownTenantError

            raise UnknownTenantError(
                f"tenant {tenant!r} was named but {type(linker).__name__} "
                "is single-tenant; build a MultiTenantLinkingService with "
                "load_tenants()"
            )
        return linker.link_many(queries, k=k, tenant=tenant)
    return linker.link_batch(queries, k=k)


def load_tenants(
    config: "Any",
    base_pipeline: Optional[str] = None,
    loader: Optional["Any"] = None,
    verify: bool = True,
) -> "Any":
    """Build and start a multi-tenant service from a runtime config.

    ``config`` is a :class:`RuntimeConfig` whose ``tenants`` section
    declares at least one tenant; each tenant is loaded lazily from its
    ``pipeline`` directory (falling back to ``base_pipeline``) on its
    first request.  ``loader`` overrides how ``(linker, kb)`` pairs are
    built — the registry's injection point for in-memory tenants.
    Returns a started :class:`MultiTenantLinkingService`; callers own
    ``stop()``.
    """
    from repro.core.config import RuntimeConfig
    from repro.tenancy import (
        MultiTenantLinkingService,
        TenantRegistry,
        pipeline_loader,
    )
    from repro.utils.errors import ConfigurationError

    if not isinstance(config, RuntimeConfig):
        raise ConfigurationError(
            f"config must be a RuntimeConfig, got {type(config).__name__}"
        )
    if not config.tenants.enabled:
        raise ConfigurationError(
            "config declares no tenants; add a 'tenants' section (or serve "
            "single-tenant with load_linker + LinkingService)"
        )
    registry = TenantRegistry(
        config.tenants,
        serving=config.serving,
        linker_config=config.linker,
        loader=(
            loader
            if loader is not None
            else pipeline_loader(base_pipeline, verify=verify)
        ),
    )
    return MultiTenantLinkingService(registry).start()


def map_concept(
    service: "Any",
    source: Optional[str],
    target: Optional[str],
    query: Optional[str] = None,
    cid: Optional[str] = None,
    k: Optional[int] = None,
    limit: int = 5,
) -> Dict[str, Any]:
    """Project a concept from one tenant's ontology into another's.

    ``service`` is a :class:`MultiTenantLinkingService` (from
    :func:`load_tenants`).  Exactly one of ``query`` (linked in the
    source tenant first) or ``cid`` (an already-linked source concept)
    must be given; returns the JSON-ready mapping report (the offline
    twin of ``POST /v1/map``).
    """
    return service.map_concept(
        source, target, query=query, cid=cid, k=k, limit=limit
    )


def compile_artifact(
    directory: Union[str, "Any"],
    model: "Any",
    ontology: "Any",
    kb: Optional["Any"] = None,
    index_aliases: bool = True,
    metadata: Optional[Dict[str, Any]] = None,
    index: str = "none",
    index_seed: int = 0,
) -> "Any":
    """Compile a concept artifact for the concept engine.

    Encodes every fine-grained concept once (encoder states, structure
    memories, Phase-I index documents + global TF-IDF statistics) into
    a versioned, checksummed directory; see
    :mod:`repro.engine.compile`.  ``index`` additionally compiles the
    sublinear retrieval indexes (``"sparse"``, ``"dense"`` or
    ``"both"``; the default ``"none"`` keeps the pre-retrieval
    content) — required for the ``dense``/``hybrid`` modes of
    :class:`RetrievalConfig`.  Returns the artifact path.
    """
    from repro.engine.compile import compile_artifact as _compile

    return _compile(
        directory,
        model,
        ontology,
        kb=kb,
        index_aliases=index_aliases,
        metadata=metadata,
        index=index,
        index_seed=index_seed,
    )
