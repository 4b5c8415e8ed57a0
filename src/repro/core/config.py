"""Configuration objects for COM-AID and the NCL pipeline.

Paper Table 1 gives the tuned parameter grid with defaults in bold:
``k ∈ {10, **20**, 30, 40, 50}``, ``β ∈ {1, **2**, 3, 4}``,
``d ∈ {50, 100, **150**, 200}``.  Those paper defaults are recorded in
:data:`PAPER_DEFAULTS`; the dataclass defaults are scaled for the
CPU-only benches (the paper trains for hours on a 40-thread server) and
every experiment overrides them explicitly.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Dict, Mapping, Optional, Union

from repro.utils.errors import ConfigurationError

#: Table 1 defaults (bold entries), for reference and reporting.
PAPER_DEFAULTS: Dict[str, int] = {"k": 20, "beta": 2, "d": 150}

#: Phase-I retrieval modes (see :mod:`repro.retrieval`).
RETRIEVAL_MODES = ("exact", "sparse", "dense", "hybrid")

#: Score-fusion methods for hybrid retrieval.
FUSION_METHODS = ("weighted_sum", "rrf")

#: Admission-queue overload policies for the multi-process front-end.
SHED_POLICIES = ("reject_new", "drop_oldest")


@dataclass(frozen=True)
class RetrievalConfig:
    """Phase-I retrieval strategy (:mod:`repro.retrieval`).

    Attributes
    ----------
    mode:
        ``exact`` — the TF-IDF scan (the default and the
        reference path; rankings identical to every release before the
        retrieval subsystem existed).  ``sparse`` — the array-backed
        inverted index (bit-identical hits, sublinear constant
        factors).  ``dense`` — the IVF ANN probe over precompiled
        concept encodings.  ``hybrid`` — sparse ∪ dense with score
        fusion.  Non-exact modes need a compiled artifact
        (``LinkerConfig.artifact_dir``); dense/hybrid additionally need
        the artifact compiled with ``repro compile --index``.
    nprobe:
        Clusters the dense side probes per query.  More clusters, more
        of the corpus scanned: recall and cost both rise roughly
        linearly in ``nprobe``.
    fusion_weight:
        ``w ∈ [0, 1]`` blending sparse (w) against dense (1−w) in
        hybrid mode; 1 ranks purely by TF-IDF cosine, 0 purely by
        embedding cosine.
    fusion_method:
        ``weighted_sum`` fuses the calibrated scores directly;
        ``rrf`` (the default) fuses reciprocal ranks — robust when the
        two score distributions are incomparable, and the setting that
        holds recall@64 >= 0.98 against the exact scan in the 100k
        benchmark (``BENCH_retrieval.json``).
    max_postings_per_term:
        Sparse-mode early termination: scan only this many
        highest-impact postings per query term (0 = exact, the
        default).  An approximation knob — it voids the bit-identity
        guarantee for very common terms.
    """

    mode: str = "exact"
    nprobe: int = 8
    fusion_weight: float = 0.95
    fusion_method: str = "rrf"
    max_postings_per_term: int = 0

    def __post_init__(self) -> None:
        if self.mode not in RETRIEVAL_MODES:
            raise ConfigurationError(
                f"retrieval mode must be one of {RETRIEVAL_MODES}, got "
                f"{self.mode!r}"
            )
        if self.nprobe < 1:
            raise ConfigurationError(
                f"nprobe must be >= 1, got {self.nprobe}"
            )
        if not 0.0 <= self.fusion_weight <= 1.0:
            raise ConfigurationError(
                f"fusion_weight must be in [0, 1], got {self.fusion_weight}"
            )
        if self.fusion_method not in FUSION_METHODS:
            raise ConfigurationError(
                f"fusion_method must be one of {FUSION_METHODS}, got "
                f"{self.fusion_method!r}"
            )
        if self.max_postings_per_term < 0:
            raise ConfigurationError(
                "max_postings_per_term must be >= 0 (0 = exact), got "
                f"{self.max_postings_per_term}"
            )


@dataclass(frozen=True)
class ComAidConfig:
    """COM-AID network architecture configuration.

    Attributes
    ----------
    dim:
        ``d`` — the shared word/concept representation dimensionality
        (the paper keeps both equal; see its footnote 10).
    beta:
        Structural-context path length β (ancestor count; Def. 4.1).
    use_text_attention:
        Textual-context attention TC (Eq. 5-6).  ``False`` gives the
        COM-AID⁻w ablation.
    use_structure_attention:
        Structural-context attention SC (Eq. 7).  ``False`` gives the
        COM-AID⁻c ablation (an attentional seq2seq [2]); disabling both
        gives COM-AID⁻wc (a plain seq2seq [40]).
    cell:
        Recurrent unit for encoder and decoder: ``"lstm"`` (the paper's
        choice, Section 4.1.1) or ``"gru"`` (a lighter extension; see
        the ablation bench).
    """

    dim: int = 32
    beta: int = 2
    use_text_attention: bool = True
    use_structure_attention: bool = True
    cell: str = "lstm"

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigurationError(f"dim must be >= 1, got {self.dim}")
        if self.cell not in ("lstm", "gru"):
            raise ConfigurationError(
                f"cell must be 'lstm' or 'gru', got {self.cell!r}"
            )
        if self.beta < 0:
            raise ConfigurationError(f"beta must be >= 0, got {self.beta}")
        if self.use_structure_attention and self.beta < 1:
            raise ConfigurationError(
                "structure attention requires beta >= 1 "
                f"(got beta={self.beta})"
            )

    @property
    def variant_name(self) -> str:
        """The paper's name for this ablation variant."""
        if self.use_text_attention and self.use_structure_attention:
            return "COM-AID"
        if self.use_text_attention:
            return "COM-AID-c"
        if self.use_structure_attention:
            return "COM-AID-w"
        return "COM-AID-wc"


@dataclass(frozen=True)
class TrainingConfig:
    """Refinement-phase (MLE) training configuration (Section 4.2).

    ``sampled_softmax`` enables the BlackOut-style output sampling the
    paper's Appendix B.2 suggests for large vocabularies: per decoded
    word, the loss is normalised over the target plus that many sampled
    negatives instead of all |V| words.  0 keeps the exact softmax.
    """

    epochs: int = 10
    batch_size: int = 16
    learning_rate: float = 0.05
    optimizer: str = "adagrad"
    clip_norm: float = 5.0
    shuffle: bool = True
    sampled_softmax: int = 0

    def __post_init__(self) -> None:
        if self.sampled_softmax < 0:
            raise ConfigurationError(
                f"sampled_softmax must be >= 0, got {self.sampled_softmax}"
            )
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if self.clip_norm <= 0:
            raise ConfigurationError(
                f"clip_norm must be positive, got {self.clip_norm}"
            )
        if self.optimizer not in ("sgd", "adagrad", "adam"):
            raise ConfigurationError(
                f"optimizer must be sgd/adagrad/adam, got {self.optimizer!r}"
            )


@dataclass(frozen=True)
class LinkerConfig:
    """Online-linking configuration (Section 5).

    Attributes
    ----------
    k:
        Candidate set size for Phase I retrieval (paper default 20).
    rewrite_queries:
        Apply OOV query rewriting (embedding nearest-word plus
        edit-distance fallback).
    remove_shared_words:
        Phase II temporarily removes words shared between query and
        canonical description before computing ``p(q|c)``.
    edit_distance_max:
        Maximum edit distance for the typo-repair fallback.
    rewrite_min_similarity:
        Minimum cosine for an embedding rewrite to be applied; OOV
        words whose nearest in-Ω word is farther are kept unchanged.
    score_omega_only:
        Phase II scores only query words in the ontology vocabulary Ω
        (numeric tokens are always kept).  After rewriting, a non-Ω
        word is one the rewriter judged to have no semantic counterpart
        among the concepts — a decoration like "for investigation" —
        and decoding it adds per-candidate noise without signal.
    index_aliases:
        Whether Phase I indexes concept aliases alongside canonical
        descriptions (richer recall; the paper's keyword matcher is
        built over concept descriptions).
    encoding_cache_size:
        Capacity of the bounded LRU caches over concept encodings and
        ancestor-path encodings (Section 5's dominant-cost forward
        passes).  0 means unbounded — the pre-serving behaviour, fine
        for one-shot CLI runs; a long-lived service should bound it to
        its memory budget.
    phase2_budget_s:
        Per-query wall-clock budget for Phase II re-ranking (ED).  When
        scoring overruns it, the query falls back to Phase I keyword
        ranking and the result is tagged ``degraded``.  0 disables the
        budget (the offline behaviour).
    degrade_on_error:
        When Phase II raises, return the Phase I keyword ranking tagged
        ``degraded`` instead of failing the whole request — the paper's
        Section 5 keyword matcher is already computed at that point and
        is strictly better than an error page.  ``False`` restores
        fail-fast (useful in tests and batch evaluation, where a hidden
        model bug must not be papered over).
    batch_phase2:
        Selects the test and benchmark **oracle**, not a latency knob.
        ``True`` (the default, and the only serving path) scores every
        surviving candidate of every query in a ``link``/``link_batch``
        call with one lock-step decode (``ComAid.score_batch``: one
        matmul per decoder timestep over the union).  ``False`` selects
        the sequential reference — one decode per candidate — that the
        equivalence suites and the benchmark oracle compare against:
        rankings, tie order and log-probs (to ≤1e-9) must match it.
        Probe, budget and degraded-mode semantics are the same on both.
    artifact_dir:
        Directory of a compiled concept artifact (``repro compile``).
        When set, the linker loads the artifact (fingerprint-checked
        against the model) and serves Phase I/II entirely from
        precomputed state via the concept engine
        (:mod:`repro.engine.shards`); unset keeps the runtime-encoding
        path.
    retrieval:
        Phase-I retrieval strategy (:class:`RetrievalConfig`).  The
        default ``mode="exact"`` preserves the pre-subsystem scan
        bit-for-bit; sparse/dense/hybrid switch to the sublinear
        indexes (see :mod:`repro.retrieval`).
    mmap_artifact:
        Map the compiled artifact's slab read-only (``load_artifact(...,
        mmap=True)``) instead of copying it into anonymous memory.  N
        worker processes mapping the same artifact then share one
        physical copy through the page cache — the zero-copy property
        ``tests/serving/test_zero_copy.py`` measures.
    """

    k: int = 20
    rewrite_queries: bool = True
    remove_shared_words: bool = True
    edit_distance_max: int = 2
    rewrite_min_similarity: float = 0.6
    score_omega_only: bool = True
    index_aliases: bool = True
    encoding_cache_size: int = 4096
    phase2_budget_s: float = 0.0
    degrade_on_error: bool = True
    batch_phase2: bool = True
    artifact_dir: Optional[str] = None
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    mmap_artifact: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.retrieval, Mapping):
            try:
                coerced = RetrievalConfig(**self.retrieval)
            except TypeError as exc:
                raise ConfigurationError(
                    f"invalid retrieval config: {exc}"
                ) from exc
            object.__setattr__(self, "retrieval", coerced)
        if not isinstance(self.retrieval, RetrievalConfig):
            raise ConfigurationError(
                "retrieval must be a RetrievalConfig or a mapping, got "
                f"{type(self.retrieval).__name__}"
            )
        if self.k < 1:
            raise ConfigurationError(f"k must be >= 1, got {self.k}")
        if self.mmap_artifact and self.artifact_dir is None:
            raise ConfigurationError(
                "mmap_artifact requires artifact_dir (only a compiled "
                "concept artifact has an mmap-able slab; run "
                "`repro compile` first)"
            )
        if self.retrieval.mode != "exact" and self.artifact_dir is None:
            raise ConfigurationError(
                f"retrieval mode {self.retrieval.mode!r} requires "
                "artifact_dir (the sublinear indexes serve a compiled "
                "concept artifact; run `repro compile` first)"
            )
        if self.edit_distance_max < 0:
            raise ConfigurationError(
                f"edit_distance_max must be >= 0, got {self.edit_distance_max}"
            )
        if not -1.0 <= self.rewrite_min_similarity <= 1.0:
            raise ConfigurationError(
                "rewrite_min_similarity must be a cosine in [-1, 1], got "
                f"{self.rewrite_min_similarity}"
            )
        if self.encoding_cache_size < 0:
            raise ConfigurationError(
                "encoding_cache_size must be >= 0 (0 = unbounded), got "
                f"{self.encoding_cache_size}"
            )
        if self.phase2_budget_s < 0:
            raise ConfigurationError(
                "phase2_budget_s must be >= 0 (0 = unlimited), got "
                f"{self.phase2_budget_s}"
            )


@dataclass(frozen=True)
class ServingConfig:
    """Online-serving configuration (the ``repro serve`` subsystem).

    Attributes
    ----------
    host / port:
        HTTP bind address; port 0 asks the OS for an ephemeral port
        (the chosen port is printed at startup).
    max_batch_size:
        Micro-batcher flush threshold: a batch dispatches as soon as
        this many requests are pending.
    batch_wait_ms:
        Micro-batcher deadline: an open batch dispatches at most this
        many milliseconds after its first request arrived, full or not.
        0 disables coalescing (every request is its own batch).
    request_timeout_s:
        End-to-end budget for one ``POST /link`` request; exceeding it
        returns HTTP 504.
    warm_on_start:
        Pre-encode the indexed concepts before readiness flips
        (``GET /readyz`` stays 503 during warm-up).
    warm_retries:
        How many times a failed warm-up is retried (with exponential
        backoff) before the service gives up and serves cold.  0
        restores the one-shot behaviour.
    warm_backoff_s:
        Base backoff before the first warm-up retry; doubles per
        attempt.
    trace_sample_rate:
        Fraction of requests whose span trace is retained (``GET
        /traces``).  Deterministic: 0.25 keeps exactly every fourth
        request.  0 disables tracing entirely (the instrumented path
        then costs one context-variable read per span site, the <1%
        overhead budget ``BENCH_obs.json`` enforces).
    trace_buffer:
        Ring-buffer capacity for finished traces; the oldest trace is
        evicted when a new one lands in a full buffer.
    workers:
        Worker *processes* for the multi-process serving tier.  0 (the
        default) keeps the single-process threaded service; N >= 1
        forks N workers that each mmap the compiled artifact (zero
        copy) and serve Phase I/II outside the parent's GIL, behind the
        async front-end's admission queue.  Requires
        ``LinkerConfig.artifact_dir``.
    admission_queue:
        Bound on requests waiting in the front-end's admission queue.
        Arrivals beyond the bound are **shed** (HTTP 503, error code
        ``shed``) per ``shed_policy`` instead of queuing unboundedly.
        0 disables admission control (unbounded queue — the
        pre-front-end behaviour).
    deadline_ms:
        Per-request queueing deadline: a request still waiting for a
        worker this many milliseconds after admission is shed rather
        than dispatched (its caller has likely timed out already —
        serving it would be pure goodput loss).  0 disables deadline
        shedding.
    shed_policy:
        Which request loses when the admission queue is full:
        ``reject_new`` (the default) sheds the arriving request —
        honest backpressure, FIFO fairness; ``drop_oldest`` sheds the
        queue head to admit the arrival — freshest-first, for callers
        that retry aggressively and only value recent answers.
    slo_window_s:
        Width of the rolling SLO window (seconds of per-second outcome
        buckets) the availability / p99-vs-deadline report in
        ``/metrics`` and ``repro top`` is computed over.
    slo_availability:
        The availability objective the error-budget burn rate is judged
        against: with 0.999, a window serving 99.8% reads as burn 2.0.
        The latency half of the SLO reuses ``deadline_ms`` (0 disables
        deadline accounting).
    """

    host: str = "127.0.0.1"
    port: int = 8080
    max_batch_size: int = 8
    batch_wait_ms: float = 2.0
    request_timeout_s: float = 30.0
    warm_on_start: bool = True
    warm_retries: int = 2
    warm_backoff_s: float = 0.5
    trace_sample_rate: float = 1.0
    trace_buffer: int = 64
    workers: int = 0
    admission_queue: int = 256
    deadline_ms: float = 0.0
    shed_policy: str = "reject_new"
    slo_window_s: float = 60.0
    slo_availability: float = 0.999

    def __post_init__(self) -> None:
        if self.warm_retries < 0:
            raise ConfigurationError(
                f"warm_retries must be >= 0, got {self.warm_retries}"
            )
        if self.warm_backoff_s < 0:
            raise ConfigurationError(
                f"warm_backoff_s must be >= 0, got {self.warm_backoff_s}"
            )
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(
                f"port must be in [0, 65535], got {self.port}"
            )
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.batch_wait_ms < 0:
            raise ConfigurationError(
                f"batch_wait_ms must be >= 0, got {self.batch_wait_ms}"
            )
        if self.request_timeout_s <= 0:
            raise ConfigurationError(
                f"request_timeout_s must be positive, got {self.request_timeout_s}"
            )
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ConfigurationError(
                "trace_sample_rate must be in [0, 1], got "
                f"{self.trace_sample_rate}"
            )
        if self.trace_buffer < 1:
            raise ConfigurationError(
                f"trace_buffer must be >= 1, got {self.trace_buffer}"
            )
        if self.workers < 0:
            raise ConfigurationError(
                "workers must be >= 0 (0 = single-process threaded tier), "
                f"got {self.workers}"
            )
        if self.admission_queue < 0:
            raise ConfigurationError(
                "admission_queue must be >= 0 (0 = unbounded), got "
                f"{self.admission_queue}"
            )
        if self.deadline_ms < 0:
            raise ConfigurationError(
                "deadline_ms must be >= 0 (0 = no queueing deadline), got "
                f"{self.deadline_ms}"
            )
        if self.shed_policy not in SHED_POLICIES:
            raise ConfigurationError(
                f"shed_policy must be one of {SHED_POLICIES}, got "
                f"{self.shed_policy!r}"
            )
        if self.slo_window_s < 1.0:
            raise ConfigurationError(
                f"slo_window_s must be >= 1, got {self.slo_window_s}"
            )
        if not 0.0 < self.slo_availability <= 1.0:
            raise ConfigurationError(
                "slo_availability must be in (0, 1], got "
                f"{self.slo_availability}"
            )


@dataclass(frozen=True)
class LifecycleConfig:
    """Model-lifecycle configuration (the blue/green feedback loop).

    Governs the production Appendix-A loop in :mod:`repro.lifecycle`:
    which live results the uncertainty pool captures, how much expert
    feedback triggers a retrain, how mirrored traffic is shadow-scored
    against a staged candidate, and the quality gates a candidate must
    clear before the atomic engine-pointer flip promotes it.

    Attributes
    ----------
    enabled:
        Whether ``repro serve`` wires a lifecycle controller (and the
        ``/v1/admin`` endpoints) around the service.
    pool_capacity:
        Bounded-reservoir size of the uncertainty pool.  When full, new
        uncertain queries displace a uniformly random pooled one
        (reservoir sampling), so the pool stays an unbiased sample of
        the uncertain stream instead of its prefix.
    loss_threshold:
        Pool a result whose top candidate's ``Loss = -log p(q|c)``
        exceeds this (Appendix A's high-loss criterion).
    margin_threshold:
        Pool a result whose top-2 log-prob margin (``log p`` of rank 1
        minus rank 2) falls below this — candidates the model cannot
        tell apart.
    retrain_after:
        Expert resolutions to accumulate before a retrain is due.
    retrain_epochs:
        Incremental epochs per retrain (``ComAidTrainer.continue_training``).
    shadow_sample_every:
        Mirror every N-th live query to the staged candidate (1 =
        mirror everything).  Deterministic, like trace sampling.
    shadow_queue_capacity:
        Bounded queue between the request path and the shadow-scoring
        thread; a full queue drops the mirror (counted), never blocks
        the live request.
    min_shadow_samples:
        Promotion gate: shadow evaluations required before a candidate
        may be promoted.
    min_agreement:
        Promotion gate: fraction of shadow evaluations whose top-1
        concept matches the live engine's.
    max_log_prob_drop:
        Promotion gate: maximum tolerated mean drop in top-1 log-prob
        (candidate vs live) across paired shadow evaluations.
    max_latency_ratio:
        Promotion gate: maximum candidate/live mean per-query latency
        ratio observed during shadowing.
    compile_index:
        ``index`` argument for candidate-artifact compilation
        (``none``/``sparse``/``dense``/``both``).
    """

    enabled: bool = False
    pool_capacity: int = 256
    loss_threshold: float = 10.0
    margin_threshold: float = 0.5
    retrain_after: int = 8
    retrain_epochs: int = 2
    shadow_sample_every: int = 1
    shadow_queue_capacity: int = 128
    min_shadow_samples: int = 16
    min_agreement: float = 0.9
    max_log_prob_drop: float = 1.0
    max_latency_ratio: float = 5.0
    compile_index: str = "both"

    def __post_init__(self) -> None:
        if self.pool_capacity < 1:
            raise ConfigurationError(
                f"pool_capacity must be >= 1, got {self.pool_capacity}"
            )
        if self.retrain_after < 1:
            raise ConfigurationError(
                f"retrain_after must be >= 1, got {self.retrain_after}"
            )
        if self.retrain_epochs < 1:
            raise ConfigurationError(
                f"retrain_epochs must be >= 1, got {self.retrain_epochs}"
            )
        if self.shadow_sample_every < 1:
            raise ConfigurationError(
                "shadow_sample_every must be >= 1 (1 = mirror everything), "
                f"got {self.shadow_sample_every}"
            )
        if self.shadow_queue_capacity < 1:
            raise ConfigurationError(
                f"shadow_queue_capacity must be >= 1, got "
                f"{self.shadow_queue_capacity}"
            )
        if self.min_shadow_samples < 1:
            raise ConfigurationError(
                f"min_shadow_samples must be >= 1, got "
                f"{self.min_shadow_samples}"
            )
        if not 0.0 <= self.min_agreement <= 1.0:
            raise ConfigurationError(
                f"min_agreement must be in [0, 1], got {self.min_agreement}"
            )
        if self.max_latency_ratio <= 0:
            raise ConfigurationError(
                f"max_latency_ratio must be positive, got "
                f"{self.max_latency_ratio}"
            )
        if self.compile_index not in ("none", "sparse", "dense", "both"):
            raise ConfigurationError(
                "compile_index must be none/sparse/dense/both, got "
                f"{self.compile_index!r}"
            )


#: Valid tenant names: path-safe, header-safe, log-safe.
_TENANT_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-"
)


@dataclass(frozen=True)
class TenantConfig:
    """One named tenant of a multi-tenant deployment.

    A tenant is an independently served ontology: its own pipeline (or
    the deployment's base pipeline), optionally its own compiled
    artifact, and its own serving knobs — retrieval mode, candidate
    set size, encoding-cache budget, and request quota.  Declared under
    the ``tenants`` section of :class:`RuntimeConfig` and served by
    :class:`repro.tenancy.TenantRegistry`.

    Attributes
    ----------
    pipeline:
        Saved pipeline directory for this tenant's model + ontology.
        Empty (the default) inherits the deployment's base pipeline —
        the ``repro serve --artifact NAME=DIR`` shape, where tenants
        share one model but mount different compiled artifacts.
    artifact_dir:
        Compiled concept artifact this tenant serves from (``repro
        compile``); None keeps the runtime-encoding path.
    retrieval_mode:
        Phase-I retrieval strategy for this tenant (see
        :class:`RetrievalConfig`; non-exact modes require
        ``artifact_dir``).
    k:
        Per-tenant candidate set size; 0 inherits the deployment's
        ``linker.k``.
    cache_budget:
        Capacity of this tenant's encoding/ancestor LRU caches
        (0 = unbounded) — the per-tenant partition of the memory the
        single-tenant ``encoding_cache_size`` governs globally.
    quota_per_minute:
        Rolling-window request quota; requests beyond it answer HTTP
        429 ``quota_exceeded``.  0 disables the quota.
    warm_on_load:
        Pre-encode the tenant's concepts when it is (lazily) loaded;
        the default serves cold and fills caches on demand, keeping
        first-touch latency bounded by one warm-up, not blocking the
        whole process at start.
    """

    pipeline: str = ""
    artifact_dir: Optional[str] = None
    retrieval_mode: str = "exact"
    k: int = 0
    cache_budget: int = 4096
    quota_per_minute: int = 0
    warm_on_load: bool = False

    def __post_init__(self) -> None:
        if self.retrieval_mode not in RETRIEVAL_MODES:
            raise ConfigurationError(
                f"tenant retrieval_mode must be one of {RETRIEVAL_MODES}, "
                f"got {self.retrieval_mode!r}"
            )
        if self.retrieval_mode != "exact" and self.artifact_dir is None:
            raise ConfigurationError(
                f"tenant retrieval_mode {self.retrieval_mode!r} requires "
                "artifact_dir (the sublinear indexes serve a compiled "
                "concept artifact)"
            )
        if self.k < 0:
            raise ConfigurationError(
                f"tenant k must be >= 0 (0 = inherit linker.k), got {self.k}"
            )
        if self.cache_budget < 0:
            raise ConfigurationError(
                f"tenant cache_budget must be >= 0 (0 = unbounded), got "
                f"{self.cache_budget}"
            )
        if self.quota_per_minute < 0:
            raise ConfigurationError(
                "tenant quota_per_minute must be >= 0 (0 = no quota), got "
                f"{self.quota_per_minute}"
            )

    def to_linker_config(self, base: "LinkerConfig") -> "LinkerConfig":
        """This tenant's :class:`LinkerConfig`, derived from ``base``.

        The deployment-wide linker section supplies everything a tenant
        does not own (rewriting, Phase-II batching, budgets); the
        tenant overrides the partitioned knobs: artifact, retrieval
        mode, cache budget, and (optionally) k.
        """
        overrides: Dict[str, Any] = {
            "artifact_dir": self.artifact_dir,
            "encoding_cache_size": self.cache_budget,
            "retrieval": dataclasses.replace(
                base.retrieval, mode=self.retrieval_mode
            ),
            # mmap only makes sense over a compiled artifact.
            "mmap_artifact": base.mmap_artifact and self.artifact_dir is not None,
        }
        if self.k > 0:
            overrides["k"] = self.k
        return dataclasses.replace(base, **overrides)


@dataclass(frozen=True)
class TenancyConfig:
    """The ``tenants`` section: named tenants plus registry-level knobs.

    Attributes
    ----------
    definitions:
        ``{tenant name: TenantConfig}``.  Empty (the default) keeps the
        deployment single-tenant — the pre-tenancy serving path,
        bit-identical responses included.
    default:
        Tenant served when a request names none; empty means requests
        must name a tenant explicitly (404 ``unknown_tenant``
        otherwise).
    max_loaded:
        LRU bound on concurrently loaded tenants (0 = unlimited); the
        least recently used loaded tenant is evicted — its service
        drained and dropped, its metrics retained — when loading
        another would exceed the bound.
    memory_budget_mb:
        Global memory budget over loaded tenants (0 = unlimited),
        accounted by each tenant's on-disk artifact/pipeline footprint;
        LRU eviction runs until the loaded set fits.
    """

    definitions: Mapping[str, TenantConfig] = field(default_factory=dict)
    default: str = ""
    max_loaded: int = 0
    memory_budget_mb: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.definitions, Mapping):
            raise ConfigurationError(
                "tenants definitions must be a mapping of name -> tenant "
                f"config, got {type(self.definitions).__name__}"
            )
        coerced: Dict[str, TenantConfig] = {}
        for name, body in self.definitions.items():
            if not isinstance(name, str) or not name:
                raise ConfigurationError(
                    f"tenant names must be non-empty strings, got {name!r}"
                )
            if set(name) - _TENANT_NAME_CHARS:
                raise ConfigurationError(
                    f"invalid tenant name {name!r}: use letters, digits, "
                    "'.', '_' and '-'"
                )
            if isinstance(body, TenantConfig):
                coerced[name] = body
            elif isinstance(body, Mapping):
                valid = {f.name for f in dataclasses.fields(TenantConfig)}
                unknown = sorted(set(body) - valid)
                if unknown:
                    raise ConfigurationError(
                        f"unknown key(s) {unknown} in tenant {name!r}; "
                        f"valid keys are {sorted(valid)}"
                    )
                coerced[name] = TenantConfig(**body)
            else:
                raise ConfigurationError(
                    f"tenant {name!r} must be a mapping or TenantConfig, "
                    f"got {type(body).__name__}"
                )
        object.__setattr__(self, "definitions", coerced)
        if self.default and self.default not in coerced:
            raise ConfigurationError(
                f"default tenant {self.default!r} is not declared; declared "
                f"tenants: {sorted(coerced)}"
            )
        if self.max_loaded < 0:
            raise ConfigurationError(
                f"max_loaded must be >= 0 (0 = unlimited), got "
                f"{self.max_loaded}"
            )
        if self.memory_budget_mb < 0:
            raise ConfigurationError(
                "memory_budget_mb must be >= 0 (0 = unlimited), got "
                f"{self.memory_budget_mb}"
            )

    @property
    def enabled(self) -> bool:
        """True when at least one tenant is declared."""
        return bool(self.definitions)


@dataclass(frozen=True)
class RuntimeConfig:
    """The six configuration sections behind one typed envelope.

    Every entry point (CLI flags, serving, config files, tests) builds
    its configs through this class, so there is exactly one place where
    raw mappings become validated dataclasses.  Round-trips losslessly
    through :meth:`to_dict`/:meth:`from_dict`; :meth:`from_file` reads
    the same shape from JSON.  Unknown section names and unknown keys
    inside a section are **rejected** with a :class:`ConfigurationError`
    naming the offender — a typo in a config file must fail loudly, not
    silently fall back to a default.
    """

    model: ComAidConfig = field(default_factory=ComAidConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    linker: LinkerConfig = field(default_factory=LinkerConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    lifecycle: LifecycleConfig = field(default_factory=LifecycleConfig)
    tenants: TenancyConfig = field(default_factory=TenancyConfig)

    #: Section name → dataclass, the single source of truth for the
    #: envelope shape (from_dict validation and to_dict ordering).
    SECTIONS: ClassVar[Dict[str, type]] = {
        "model": ComAidConfig,
        "training": TrainingConfig,
        "linker": LinkerConfig,
        "serving": ServingConfig,
        "lifecycle": LifecycleConfig,
        "tenants": TenancyConfig,
    }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RuntimeConfig":
        """Build from a ``{section: {key: value}}`` mapping.

        Absent sections take their defaults.  Unknown sections, unknown
        keys within a section, and non-mapping section bodies raise
        :class:`ConfigurationError`; value validation is then delegated
        to each dataclass's ``__post_init__``.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"config must be a mapping of sections, got "
                f"{type(payload).__name__}"
            )
        unknown_sections = sorted(set(payload) - set(cls.SECTIONS))
        if unknown_sections:
            raise ConfigurationError(
                f"unknown config section(s) {unknown_sections}; valid "
                f"sections are {sorted(cls.SECTIONS)}"
            )
        built: Dict[str, Any] = {}
        for section, section_cls in cls.SECTIONS.items():
            body = payload.get(section)
            if body is None:
                built[section] = section_cls()
                continue
            if isinstance(body, section_cls):
                built[section] = body
                continue
            if not isinstance(body, Mapping):
                raise ConfigurationError(
                    f"config section {section!r} must be a mapping, got "
                    f"{type(body).__name__}"
                )
            valid = {f.name for f in dataclasses.fields(section_cls)}
            unknown_keys = sorted(set(body) - valid)
            if unknown_keys:
                raise ConfigurationError(
                    f"unknown key(s) {unknown_keys} in config section "
                    f"{section!r}; valid keys are {sorted(valid)}"
                )
            built[section] = section_cls(**body)
        return cls(**built)

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """JSON-ready ``{section: {key: value}}`` (from_dict round-trip)."""
        return {
            section: dataclasses.asdict(getattr(self, section))
            for section in self.SECTIONS
        }

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "RuntimeConfig":
        """Load a JSON config file shaped like :meth:`to_dict` output."""
        source = Path(path)
        try:
            text = source.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot read config file {source}: {exc}"
            ) from exc
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"config file {source} is not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(payload)

    def replace_section(self, section: str, **overrides: Any) -> "RuntimeConfig":
        """A copy with ``overrides`` applied inside one section.

        The CLI layers flag values over a ``--config`` file with this;
        unknown keys are rejected exactly as in :meth:`from_dict`.
        """
        if section not in self.SECTIONS:
            raise ConfigurationError(
                f"unknown config section {section!r}; valid sections are "
                f"{sorted(self.SECTIONS)}"
            )
        section_cls = self.SECTIONS[section]
        valid = {f.name for f in dataclasses.fields(section_cls)}
        unknown_keys = sorted(set(overrides) - valid)
        if unknown_keys:
            raise ConfigurationError(
                f"unknown key(s) {unknown_keys} in config section "
                f"{section!r}; valid keys are {sorted(valid)}"
            )
        updated = dataclasses.replace(getattr(self, section), **overrides)
        return dataclasses.replace(self, **{section: updated})
