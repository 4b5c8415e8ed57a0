"""The two-phase online concept linker (paper Section 5).

Phase I — generate candidates: rewrite OOV query words (OR), then
retrieve the top-``k`` fine-grained concepts from the TF-IDF keyword
index (CR).

Phase II — re-rank with COM-AID: for each candidate, compute
``log p(q|c; Θ)`` with the trained model (ED), after temporarily
removing the words the query shares with the candidate's canonical
description; rank by score (RT).  Every surviving candidate of every
query in a :meth:`NeuralConceptLinker.link` or
:meth:`NeuralConceptLinker.link_batch` call is scored by one lock-step
decode (:meth:`repro.core.comaid.ComAid.score_batch`) — a single query
is a one-item batch.  ``LinkerConfig.batch_phase2=False`` selects the
per-candidate sequential decode instead: the reference oracle the
equivalence suites and the benchmark compare against.

Timing of the four parts (OR/CR/ED/RT) is recorded per query, which is
exactly the decomposition the paper's Figure 11 reports.  Concept
encodings are cached in thread-safe bounded LRUs
(:class:`repro.serving.cache.LRUCache`, capacity from
``LinkerConfig.encoding_cache_size``), mirroring the paper's
observation that the encode-decode forward passes dominate online
cost.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.candidates import CandidateGenerator
from repro.core.comaid import ComAid, ConceptEncoding
from repro.core.config import LinkerConfig
from repro.core.rewriter import QueryRewriter, Rewrite
from repro.embeddings.similarity import WordVectors
from repro.kb.knowledge_base import KnowledgeBase
from repro.obs import trace
from repro.ontology.ontology import Ontology
from repro.ontology.paths import structural_context
from repro.serving.cache import CacheStats, LRUCache
from repro.text.tokenize import tokenize
from repro.utils.errors import ConfigurationError
from repro.utils.faults import probe
from repro.utils.logging import get_logger
from repro.utils.timing import PhaseTimer, TimingBreakdown

logger = get_logger("core.linker")


@dataclass(frozen=True)
class RankedConcept:
    """One re-ranked candidate: cid, COM-AID log-prob, keyword score."""

    cid: str
    log_prob: float
    keyword_score: float

    @property
    def loss(self) -> float:
        """The paper's ``Loss = -log p(q|c;Θ)`` (Appendix A)."""
        return -self.log_prob


@dataclass
class LinkResult:
    """Outcome of linking one query.

    ``degraded=True`` marks a result whose ranking is Phase I keyword
    order only (the paper's Section 5 keyword matcher): Phase II either
    raised or overran its per-query budget, so COM-AID scores are
    absent and every ``log_prob`` is ``-inf``.  ``degraded_reason``
    says which (``"error: …"`` or ``"budget: …"``).
    """

    query: str
    tokens: Tuple[str, ...]
    rewritten_tokens: Tuple[str, ...]
    rewrites: Tuple[Rewrite, ...]
    ranked: Tuple[RankedConcept, ...]
    timing: TimingBreakdown = field(default_factory=TimingBreakdown)
    degraded: bool = False
    degraded_reason: Optional[str] = None

    @property
    def top(self) -> Optional[RankedConcept]:
        return self.ranked[0] if self.ranked else None

    def rank_of(self, cid: str) -> Optional[int]:
        """1-based rank of ``cid`` in the result, or None if absent."""
        for position, candidate in enumerate(self.ranked, start=1):
            if candidate.cid == cid:
                return position
        return None


@dataclass
class _PreparedQuery:
    """Phase-I output for one query, awaiting Phase-II scoring."""

    query: str
    tokens: Tuple[str, ...]
    rewritten: Tuple[str, ...]
    rewrites: Tuple[Rewrite, ...]
    keyword_hits: List[Tuple[str, float]]
    timer: PhaseTimer


class NeuralConceptLinker:
    """NCL online linking: Phase I retrieval + Phase II COM-AID re-ranking."""

    def __init__(
        self,
        model: ComAid,
        ontology: Ontology,
        config: Optional[LinkerConfig] = None,
        kb: Optional[KnowledgeBase] = None,
        word_vectors: Optional[WordVectors] = None,
        restrict_to: Optional[Sequence[str]] = None,
        priors: Optional[Dict[str, float]] = None,
        engine: Optional[object] = None,
    ) -> None:
        """Two-phase linker.

        ``priors`` enables the MAP variant the paper offers in Section
        5 (Eq. 11): a non-uniform prior ``p(c)`` over fine-grained
        concepts (e.g. historical coding frequencies).  Candidates are
        then ranked by ``log p(q|c) + log p(c)``; omitted, the prior is
        uniform and ranking reduces to MLE (Eq. 12).  Priors must be
        positive; they are normalised internally, and every supplied
        cid must exist in the ontology.

        ``engine`` injects a pre-built
        :class:`repro.engine.shards.ShardedConceptEngine`; without one,
        ``config.artifact_dir`` (if set) loads the compiled artifact —
        fingerprint-checked against ``model`` — and builds the engine.
        With an engine active, Phase I retrieves from the engine and
        Phase II scores from the precomputed encoding slab; rankings
        are identical to the runtime-encoding path.
        """
        self.model = model
        self.ontology = ontology
        self.config = config if config is not None else LinkerConfig()
        # Retained so swap_engine can rebuild the rewriter and scoring
        # vocabulary over the new model's frozen documents.
        self._kb = kb
        self._word_vectors = word_vectors
        self._restrict_to = restrict_to
        if engine is None and self.config.artifact_dir is not None:
            if restrict_to is not None:
                raise ConfigurationError(
                    "restrict_to cannot be combined with artifact_dir: the "
                    "compiled artifact fixes the indexed concept set"
                )
            # Engine imports stay function-local: repro.engine.compile
            # imports the persistence layer, which imports this module.
            from repro.engine.compile import load_artifact
            from repro.engine.shards import ShardedConceptEngine

            artifact = load_artifact(
                self.config.artifact_dir,
                model=model,
                mmap=self.config.mmap_artifact,
            )
            if artifact.index_aliases != self.config.index_aliases:
                raise ConfigurationError(
                    f"artifact was compiled with index_aliases="
                    f"{artifact.index_aliases} but the linker is configured "
                    f"with index_aliases={self.config.index_aliases}; "
                    "recompile or align the config"
                )
            engine = ShardedConceptEngine(
                model, ontology, artifact, retrieval=self.config.retrieval
            )
        self._log_priors: Optional[Dict[str, float]] = None
        if priors is not None:
            if not priors:
                raise ConfigurationError("priors mapping is empty")
            total = 0.0
            for cid, mass in priors.items():
                ontology.get(cid)  # raises for unknown cids
                if mass <= 0:
                    raise ConfigurationError(
                        f"prior for {cid!r} must be positive, got {mass}"
                    )
                total += mass
            self._log_priors = {
                cid: math.log(mass / total) for cid, mass in priors.items()
            }
        self._adopt_engine(engine)
        #: Provenance from the deployment manifest (seed, resume point,
        #: training losses …); populated by ``load_pipeline`` and
        #: surfaced by the serving layer's ``/metrics``.
        self.pipeline_metadata: Dict[str, Any] = {}

    def _adopt_engine(self, engine: Optional[object]) -> None:
        """Install ``engine`` and rebuild everything derived from it.

        Phase-I candidates come from the engine's own generator (built
        over the artifact's *frozen* documents, so Ω and any direct
        ``candidates`` use can never drift from what the engine
        serves), or from the live ontology + KB without an engine.
        The OOV rewriter and the scoring vocabulary follow from the
        candidates.  The encoding caches are *replaced*, not cleared:
        an in-flight ``get_or_create`` computed against the previous
        model can only land in the orphaned cache object.
        """
        self._engine = engine
        if engine is not None:
            self.candidates = engine.candidates
        else:
            self.candidates = CandidateGenerator(
                self.ontology,
                kb=self._kb,
                index_aliases=self.config.index_aliases,
                restrict_to=self._restrict_to,
            )
        self.rewriter: Optional[QueryRewriter] = None
        if self.config.rewrite_queries:
            self.rewriter = QueryRewriter(
                self.candidates.omega,
                word_vectors=self._word_vectors,
                edit_distance_max=self.config.edit_distance_max,
                min_similarity=self.config.rewrite_min_similarity,
            )
        # Scoring vocabulary: Ω plus alias words — exactly the words the
        # decoder saw as training targets, i.e. the words whose decode
        # probabilities carry learned signal.
        self._omega = self.candidates.omega
        self._scoring_vocabulary = set(self._omega)
        if self._kb is not None:
            for _, alias in self._kb.labeled_snippets():
                self._scoring_vocabulary.update(tokenize(alias))
        capacity = self.config.encoding_cache_size or None
        self._encoding_cache: LRUCache[str, ConceptEncoding] = LRUCache(
            capacity, name="encodings"
        )
        self._ancestor_cache: LRUCache[str, List[ConceptEncoding]] = LRUCache(
            capacity, name="ancestors"
        )

    # -- engine --------------------------------------------------------------

    @property
    def engine(self) -> Optional[object]:
        """The active concept engine, or None (runtime-encoding path)."""
        return self._engine

    @property
    def model_fingerprint(self) -> str:
        """SHA-256 identity of the weights currently serving.

        From the compiled artifact when an engine is active (free),
        otherwise computed over the live parameters.
        """
        if self._engine is not None:
            value = self._engine.artifact.fingerprint.get("params_sha256")
            if value:
                return str(value)
        # Function-local: repro.engine.compile imports the persistence
        # layer, which imports this module.
        from repro.engine.compile import model_fingerprint

        return str(model_fingerprint(self.model)["params_sha256"])

    def swap_engine(
        self,
        model: ComAid,
        engine: Optional[object],
        artifact_dir: Optional[str] = None,
    ) -> Tuple[ComAid, Optional[object]]:
        """Blue/green flip: adopt new weights and their compiled engine.

        Replaces the model and engine pointers and rebuilds everything
        derived from them — Phase-I candidates (from the new artifact's
        frozen documents), the OOV rewriter, the scoring vocabulary —
        then *replaces* (not clears) the encoding caches: an in-flight
        ``get_or_create`` computed against the old model can only land
        in the orphaned cache object, so a stale encoding can never
        score under the new fingerprint.  Returns the previous
        ``(model, engine)`` so the caller can roll back by swapping
        them straight back in.

        The flip itself is plain attribute assignment; the serving
        layer guarantees atomicity by performing it under the same lock
        that serialises batch scoring (``LinkingService.exclusive``),
        so in-flight requests complete on the old engine and queued
        ones start on the new.
        """
        if engine is not None:
            # Never flip to an engine whose artifact was compiled from
            # other weights — the same stale-artifact guard load-time
            # enforcement gives, re-checked at the swap boundary.
            engine.artifact.check_model(model)
            if engine.artifact.index_aliases != self.config.index_aliases:
                raise ConfigurationError(
                    "candidate artifact was compiled with index_aliases="
                    f"{engine.artifact.index_aliases} but the linker is "
                    f"configured with {self.config.index_aliases}"
                )
        previous = (self.model, self._engine)
        self.model = model
        self._adopt_engine(engine)
        if artifact_dir is not None:
            import dataclasses

            self.config = dataclasses.replace(
                self.config, artifact_dir=str(artifact_dir)
            )
        return previous

    # -- encoding cache -----------------------------------------------------

    def _concept_encoding(self, cid: str) -> ConceptEncoding:
        if self._engine is not None and cid in self._engine:
            return self._engine.encoding_of(cid)
        return self._encoding_cache.get_or_create(
            cid, lambda: self._encode(cid)
        )

    def _encode(self, cid: str) -> ConceptEncoding:
        concept = self.ontology.get(cid)
        ids = self.model.words_to_ids(list(concept.words))
        return self.model.encode_concept(ids, keep_caches=False)

    def _ancestor_encodings(self, cid: str) -> Union[List[ConceptEncoding], Any]:
        """Ancestor encodings, or a precompiled structure-memory matrix.

        With an engine active the return value is the artifact's
        ``(beta, dim)`` matrix (or ``[]`` without structure attention) —
        both scoring entry points accept either form.
        """
        if not self.model.config.use_structure_attention:
            return []
        if self._engine is not None and cid in self._engine:
            return self._engine.structure_memory_of(cid)
        return self._ancestor_cache.get_or_create(
            cid, lambda: self._encode_ancestors(cid)
        )

    def _encode_ancestors(self, cid: str) -> List[ConceptEncoding]:
        path = structural_context(self.ontology, cid, self.model.config.beta)
        ancestors = []
        for concept in path[1:]:
            ids = self.model.words_to_ids(list(concept.words))
            ancestors.append(self.model.encode_concept(ids, keep_caches=False))
        return ancestors

    def invalidate_cache(self) -> None:
        """Drop cached encodings (call after the model is retrained)."""
        self._encoding_cache.clear()
        self._ancestor_cache.clear()

    def cache_stats(self) -> Tuple[CacheStats, CacheStats]:
        """Snapshots of the encoding and ancestor cache counters."""
        return (self._encoding_cache.stats, self._ancestor_cache.stats)

    def warm_cache(self, cids: Optional[Sequence[str]] = None) -> int:
        """Pre-encode concepts (all indexed leaves by default)."""
        targets = cids if cids is not None else self.candidates.indexed_cids
        for cid in targets:
            self._concept_encoding(cid)
            self._ancestor_encodings(cid)
        return len(self._encoding_cache)

    # -- linking -----------------------------------------------------------------

    def link(self, query: str, k: Optional[int] = None) -> LinkResult:
        """Link ``query`` to its top fine-grained concepts."""
        prepared = self._phase_one(query, self._resolve_k(k))
        return self._phase_two([prepared], [None])[0]

    def link_batch(
        self,
        queries: Sequence[str],
        k: Union[None, int, Sequence[Optional[int]]] = None,
        trace_contexts: Optional[Sequence[object]] = None,
    ) -> List[LinkResult]:
        """Link several queries with one Phase-II decode for the batch.

        Phase I (OR + CR) runs for every query first, then every
        query's surviving candidates are scored together (see
        :meth:`_phase_two`).  Rankings are identical to calling
        :meth:`link` per query in any order; batching changes the work
        schedule, not the scores.

        ``k`` may be a single value for the whole batch or one
        (possibly ``None``) entry per query.

        ``trace_contexts`` carries one (possibly ``None``) span per
        query: this method typically runs on the micro-batcher's worker
        thread, where the submitting request's trace context is not
        ambient, so the serving layer captures each request's span at
        submit time and the per-query work here re-enters it — nesting
        the linker's spans under the right request even though requests
        from several traces share one batch.
        """
        if isinstance(k, (list, tuple)):
            if len(k) != len(queries):
                raise ConfigurationError(
                    f"got {len(k)} k values for {len(queries)} queries"
                )
            top_ks = [self._resolve_k(value) for value in k]
        else:
            top_ks = [self._resolve_k(k)] * len(queries)
        if trace_contexts is not None and len(trace_contexts) != len(queries):
            raise ConfigurationError(
                f"got {len(trace_contexts)} trace contexts for "
                f"{len(queries)} queries"
            )
        contexts: Sequence[object] = (
            trace_contexts
            if trace_contexts is not None
            else [None] * len(queries)
        )
        prepared = []
        for query, top_k, context in zip(queries, top_ks, contexts):
            with trace.attach(context):
                prepared.append(self._phase_one(query, top_k))
        return self._phase_two(prepared, contexts)

    def _resolve_k(self, k: Optional[int]) -> int:
        top_k = k if k is not None else self.config.k
        if top_k < 1:
            raise ConfigurationError(f"k must be >= 1, got {top_k}")
        return top_k

    def _phase_one(self, query: str, top_k: int) -> "_PreparedQuery":
        """Phase I: tokenize, rewrite OOV words (OR), retrieve (CR)."""
        timer = PhaseTimer()
        tokens = tuple(tokenize(query))
        rewrites: Tuple[Rewrite, ...] = ()
        rewritten = tokens
        with timer.phase("OR"), trace.span(
            "linker.rewrite", phase="OR"
        ) as span:
            if self.rewriter is not None and tokens:
                rewritten_list, applied = self.rewriter.rewrite(tokens)
                rewritten = tuple(rewritten_list)
                rewrites = tuple(applied)
                if applied:
                    span.set_tag("rewrites", len(applied))
        with timer.phase("CR"), trace.span(
            "linker.retrieve", phase="CR", k=top_k
        ) as span:
            if not rewritten:
                keyword_hits = []
            elif self._engine is not None:
                keyword_hits = self._engine.retrieve(rewritten, top_k)
            else:
                keyword_hits = self.candidates.generate(rewritten, k=top_k)
            span.set_tag("candidates", len(keyword_hits))
        return _PreparedQuery(
            query=query,
            tokens=tokens,
            rewritten=rewritten,
            rewrites=rewrites,
            keyword_hits=keyword_hits,
            timer=timer,
        )

    def _phase_two(
        self,
        prepared_list: List["_PreparedQuery"],
        contexts: Sequence[object],
    ) -> List[LinkResult]:
        """Phase II: COM-AID scoring (ED) and ranking (RT).

        Every query's surviving candidates are concatenated into one
        ``score_batch`` call — one GEMM per decoder timestep over the
        union of in-flight candidates.  ``score_batch`` rows do not
        depend on batch composition, so each query's scores equal the
        sequential reference's (≤1e-9).  ``batch_phase2=False`` runs
        that reference (:meth:`_phase_two_sequential`) instead.

        Phase II is guarded per query: when scoring raises (and
        ``degrade_on_error`` is set) or overruns ``phase2_budget_s``,
        the query degrades to the Phase I keyword ranking instead of
        failing — Phase I is already computed at this point and a
        keyword-ranked answer beats an error for an interactive
        clinical user.  The ``linker.phase2`` probe and the deadline
        are checked per candidate while the batch is assembled; the
        all-or-nothing decode sits behind ``linker.phase2.batch`` and
        is followed by one more deadline check per query.

        The shared decode runs under the first contributing query's
        ``linker.phase2`` span, and its wall time is attributed to that
        query's ED phase — splitting it would fabricate per-query
        latencies for work that was done once.
        """
        if not self.config.batch_phase2:
            results = []
            for prepared, context in zip(prepared_list, contexts):
                with trace.attach(context):
                    results.append(self._phase_two_sequential(prepared))
            return results
        config = self.config
        budget = config.phase2_budget_s
        count = len(prepared_list)
        spans: List[Any] = [None] * count
        deadlines: List[Optional[float]] = [None] * count
        degraded: List[Optional[str]] = [None] * count
        log_probs: List[List[float]] = []
        pending_ids: List[List[int]] = []
        pending_owner: List[Tuple[int, int]] = []
        try:
            for qi, prepared in enumerate(prepared_list):
                hits = prepared.keyword_hits
                log_probs.append([0.0] * len(hits))
                start = len(pending_owner)
                with trace.attach(contexts[qi]):
                    spans[qi] = trace.start_span(
                        "linker.phase2", phase="ED", candidates=len(hits)
                    )
                if budget > 0:
                    deadlines[qi] = time.monotonic() + budget
                with prepared.timer.phase("ED"), trace.attach(spans[qi]):
                    try:
                        for index, (cid, _) in enumerate(hits):
                            probe("linker.phase2")
                            if self._past(deadlines[qi]):
                                degraded[qi] = (
                                    f"budget: phase2 exceeded {budget:.3f}s "
                                    f"after {index}/{len(hits)} candidates"
                                )
                                break
                            effective = self._effective_tokens(
                                cid, prepared.rewritten
                            )
                            if effective is not None:
                                pending_owner.append((qi, index))
                                pending_ids.append(
                                    self.model.words_to_ids(effective)
                                )
                    except Exception as error:  # noqa: BLE001 - degraded-mode guard
                        degraded[qi] = self._degrade_reason(prepared, error)
                if degraded[qi] is not None:
                    # A degraded query serves its keyword ranking; its
                    # queued candidates must not ride along in the decode.
                    del pending_owner[start:]
                    del pending_ids[start:]
            if pending_ids:
                owners = sorted({qi for qi, _ in pending_owner})
                first = owners[0]
                cids = [
                    prepared_list[qi].keyword_hits[index][0]
                    for qi, index in pending_owner
                ]
                try:
                    with prepared_list[first].timer.phase(
                        "ED"
                    ), trace.attach(spans[first]):
                        scores = self._decode(pending_ids, cids, len(owners))
                except Exception as error:  # noqa: BLE001 - degraded-mode guard
                    reason = self._degrade_reason(None, error)
                    for qi in owners:
                        degraded[qi] = reason
                else:
                    for (qi, index), score in zip(pending_owner, scores):
                        log_probs[qi][index] = float(score)
                for qi in owners:
                    if degraded[qi] is None and self._past(deadlines[qi]):
                        degraded[qi] = (
                            f"budget: phase2 exceeded {budget:.3f}s scoring "
                            f"{len(pending_ids)} candidates in one batch"
                        )
        finally:
            for qi, span in enumerate(spans):
                if span is not None:
                    if degraded[qi] is not None:
                        span.set_tag("degraded_reason", degraded[qi])
                    span.end()
        results: List[LinkResult] = []
        for qi, prepared in enumerate(prepared_list):
            with trace.attach(contexts[qi]):
                if degraded[qi] is not None:
                    results.append(
                        self._degraded_result(prepared, degraded[qi])
                    )
                    continue
                scored = [
                    RankedConcept(
                        cid=cid,
                        log_prob=log_probs[qi][index],
                        keyword_score=keyword_score,
                    )
                    for index, (cid, keyword_score) in enumerate(
                        prepared.keyword_hits
                    )
                ]
                results.append(self._ranked_result(prepared, scored))
        return results

    def _decode(
        self, query_ids: List[List[int]], cids: List[str], queries: int
    ) -> Sequence[float]:
        """The one lock-step decode behind ``linker.phase2.batch``."""
        probe("linker.phase2.batch")
        with trace.span(
            "linker.phase2.decode",
            phase="ED",
            batch=len(cids),
            fused_queries=queries,
        ) as span:
            if self._engine is not None:
                # Candidates came from the engine's own index, so every
                # cid has a precompiled encoding.
                span.set_tag("precompiled", True)
                return self._engine.score_batch(query_ids, cids)
            if span.is_recording:
                cached = sum(1 for cid in cids if cid in self._encoding_cache)
                span.set_tag("encodings_cached", cached)
                span.set_tag("encodings_missing", len(cids) - cached)
            batch = [
                (self._concept_encoding(cid), self._ancestor_encodings(cid))
                for cid in cids
            ]
            return self.model.score_batch(query_ids, batch)

    @staticmethod
    def _past(deadline: Optional[float]) -> bool:
        return deadline is not None and time.monotonic() > deadline

    def _degrade_reason(
        self, prepared: Optional["_PreparedQuery"], error: Exception
    ) -> str:
        """The ``error:`` degraded reason, or re-raise when fail-fast."""
        if not self.config.degrade_on_error:
            raise error
        logger.warning(
            "phase2 failed for %s; serving keyword ranking: %s",
            repr(prepared.query) if prepared is not None else "the batch",
            error,
        )
        return f"error: {type(error).__name__}: {error}"

    def _ranked_result(
        self, prepared: "_PreparedQuery", scored: List[RankedConcept]
    ) -> LinkResult:
        """Phase RT: sort scored candidates (MAP-aware) into a result."""
        timer = prepared.timer
        with timer.phase("RT"), trace.span(
            "linker.rerank", phase="RT", results=len(scored)
        ):
            if self._log_priors is not None:
                log_priors = self._log_priors
                floor = min(log_priors.values())
                scored.sort(
                    key=lambda item: (
                        -(item.log_prob + log_priors.get(item.cid, floor)),
                        -item.keyword_score,
                    )
                )
            else:
                scored.sort(
                    key=lambda item: (-item.log_prob, -item.keyword_score)
                )
        return LinkResult(
            query=prepared.query,
            tokens=prepared.tokens,
            rewritten_tokens=prepared.rewritten,
            rewrites=prepared.rewrites,
            ranked=tuple(scored),
            timing=timer.breakdown,
        )

    def _phase_two_sequential(self, prepared: "_PreparedQuery") -> LinkResult:
        """Per-candidate reference decode (the ``batch_phase2=False`` oracle).

        Same probe, budget and degraded-mode semantics as
        :meth:`_phase_two`, one ``score_with_encodings`` call per
        candidate.
        """
        timer = prepared.timer
        hits = prepared.keyword_hits
        budget = self.config.phase2_budget_s
        deadline = (time.monotonic() + budget) if budget > 0 else None
        scored: List[RankedConcept] = []
        degraded_reason: Optional[str] = None
        with timer.phase("ED"), trace.span(
            "linker.phase2",
            phase="ED",
            candidates=len(hits),
            mode="sequential",
        ) as ed_span:
            try:
                with trace.span(
                    "linker.phase2.decode", phase="ED", mode="sequential"
                ):
                    for cid, keyword_score in hits:
                        probe("linker.phase2")
                        if self._past(deadline):
                            degraded_reason = (
                                f"budget: phase2 exceeded {budget:.3f}s after "
                                f"{len(scored)}/{len(hits)} candidates"
                            )
                            break
                        log_prob = self._score_candidate(cid, prepared.rewritten)
                        scored.append(
                            RankedConcept(
                                cid=cid,
                                log_prob=log_prob,
                                keyword_score=keyword_score,
                            )
                        )
            except Exception as error:  # noqa: BLE001 - degraded-mode guard
                degraded_reason = self._degrade_reason(prepared, error)
            if degraded_reason is not None:
                ed_span.set_tag("degraded_reason", degraded_reason)
        if degraded_reason is not None:
            return self._degraded_result(prepared, degraded_reason)
        return self._ranked_result(prepared, scored)

    def _degraded_result(
        self, prepared: "_PreparedQuery", reason: str
    ) -> LinkResult:
        """Phase I fallback: keyword ranking only, tagged ``degraded``."""
        with prepared.timer.phase("RT"), trace.span(
            "linker.rerank", phase="RT", degraded=True
        ):
            ranked = tuple(
                RankedConcept(
                    cid=cid, log_prob=-math.inf, keyword_score=keyword_score
                )
                for cid, keyword_score in sorted(
                    prepared.keyword_hits,
                    key=lambda hit: (-hit[1], hit[0]),
                )
            )
        return LinkResult(
            query=prepared.query,
            tokens=prepared.tokens,
            rewritten_tokens=prepared.rewritten,
            rewrites=prepared.rewrites,
            ranked=ranked,
            timing=prepared.timer.breakdown,
            degraded=True,
            degraded_reason=reason,
        )

    def _score_candidate(self, cid: str, query_tokens: Sequence[str]) -> float:
        """``log p(q|c)`` for one candidate.

        Per Section 5 Phase II, words appearing in both the canonical
        description and the query are temporarily removed before the
        probability is computed — shared words are trivially decodable,
        so scoring concentrates on the discrepant words.  (Removed words
        contribute log-probability 0, i.e. probability 1.)  A query
        fully covered by the description scores 0, the maximum.

        With ``score_omega_only`` (default), words outside the scoring
        vocabulary (Ω plus knowledge-base alias words — the decoder's
        training targets) are excluded: after rewriting, a surviving
        word outside that set is one with no semantic counterpart among
        the concepts (a clinical decoration), and its decode probability
        is untrained noise that differs arbitrarily across candidates.
        Numeric tokens are always kept — stage/type numbers are
        load-bearing.

        This is the sequential reference: :meth:`_phase_two` applies the
        same :meth:`_effective_tokens` filter and must agree with this
        method to ≤1e-9 per candidate (the equivalence suite's oracle).
        """
        effective = self._effective_tokens(cid, query_tokens)
        if effective is None:
            return 0.0
        query_ids = self.model.words_to_ids(effective)
        encoding = self._concept_encoding(cid)
        ancestors = self._ancestor_encodings(cid)
        return self.model.score_with_encodings(encoding, ancestors, query_ids)

    def _effective_tokens(
        self, cid: str, query_tokens: Sequence[str]
    ) -> Optional[List[str]]:
        """The query words Phase II actually decodes against ``cid``.

        Applies the Ω/numeric filter (``score_omega_only``) then
        shared-word removal (``remove_shared_words``); returns ``None``
        when every surviving word appears in the canonical description —
        the trivially decodable case both scoring paths short-circuit to
        log-probability 0 without running the model.
        """
        concept = self.ontology.get(cid)
        effective = list(query_tokens)
        if self.config.score_omega_only:
            vocabulary = self._scoring_vocabulary
            effective = [
                token
                for token in effective
                if token in vocabulary or any(char.isdigit() for char in token)
            ]
            if not effective:
                effective = list(query_tokens)
        if self.config.remove_shared_words:
            description_words = set(concept.words)
            effective = [
                token for token in effective if token not in description_words
            ]
            if not effective:
                return None
        return effective
