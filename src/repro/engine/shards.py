"""The linking engine over a compiled concept artifact.

:class:`ShardedConceptEngine` serves the linker's two hot paths from
precompiled state:

* Phase I — one TF-IDF index over the artifact's frozen documents,
  fitted with the artifact's corpus statistics (or, in the non-exact
  retrieval modes, the global sublinear index from
  :mod:`repro.retrieval`), and
* Phase II — one lock-step batched decode
  (:meth:`repro.core.comaid.ComAid.score_batch`) over zero-copy views
  into the artifact's precomputed encoding slab, so scoring never runs
  the concept or ancestor encoders online.

The engine is one partition on the calling thread.  Parallelism comes
from the multi-process serving tier (:mod:`repro.serving.procpool`),
whose workers share the artifact's mmap'd slab.  Failures in either
phase propagate; the linker's degraded-mode guard turns a scoring
failure into the Phase-I keyword ranking.

Fault probe sites: ``engine.retrieve`` (Phase I, every mode) and
``engine.score`` (Phase II).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.candidates import CandidateGenerator
from repro.core.comaid import ComAid, ConceptEncoding
from repro.core.config import RetrievalConfig
from repro.engine.compile import ConceptArtifact
from repro.obs import trace
from repro.ontology.ontology import Ontology
from repro.retrieval.hybrid import HybridRetriever
from repro.retrieval.inverted import InvertedIndex
from repro.utils.errors import ConfigurationError, DataError
from repro.utils.faults import probe
from repro.utils.logging import get_logger

logger = get_logger("engine.shards")


class ShardedConceptEngine:
    """Phase-I retrieval and Phase-II scoring over a compiled artifact.

    Construct from a trained model, the ontology, and a loaded
    :class:`~repro.engine.compile.ConceptArtifact` (the artifact's
    fingerprint should already have been checked against ``model`` by
    ``load_artifact``).  The engine then serves :meth:`retrieve`
    (Phase I) and :meth:`score_batch` (Phase II), both backed entirely
    by precompiled state.
    """

    def __init__(
        self,
        model: ComAid,
        ontology: Ontology,
        artifact: ConceptArtifact,
        retrieval: Optional[RetrievalConfig] = None,
    ) -> None:
        """Index the artifact's frozen documents.

        ``retrieval`` selects the Phase-I strategy
        (:class:`repro.core.config.RetrievalConfig`).  ``exact`` (the
        default) scans the TF-IDF index; ``sparse``, ``dense`` and
        ``hybrid`` serve from the sublinear indexes
        (:mod:`repro.retrieval`).  Sparse serving prefers the
        artifact's precompiled index and falls back to freezing one at
        engine start; dense/hybrid require an artifact compiled with
        ``repro compile --index`` (no fallback — k-means training at
        startup would hide minutes of latency).
        """
        self._model = model
        self._artifact = artifact
        self._candidates = CandidateGenerator.from_documents(
            ontology, artifact.documents, artifact.corpus_stats
        )
        self._retrieval = (
            retrieval if retrieval is not None else RetrievalConfig()
        )
        self._hybrid: Optional[HybridRetriever] = None
        if self._retrieval.mode != "exact":
            self._hybrid = self._build_retriever(self._retrieval)
        self._lock = threading.Lock()
        self._retrievals = 0
        self._score_batches = 0
        self._mode_retrievals: Dict[str, int] = {
            mode: 0 for mode in ("exact", "sparse", "dense", "hybrid")
        }

    def _build_retriever(self, config: RetrievalConfig) -> HybridRetriever:
        """The global sublinear retriever for non-exact modes."""
        artifact = self._artifact
        sparse = artifact.sparse_index
        if sparse is None:
            # No precompiled sparse index (compiled with --index
            # none/dense): freezing one from the frozen documents is
            # cheap relative to engine start and yields the identical
            # index.
            logger.info(
                "artifact has no precompiled sparse index; freezing one "
                "from %d documents at engine start",
                len(artifact.documents),
            )
            sparse = InvertedIndex.build(
                artifact.documents, stats=artifact.corpus_stats
            )
        dense = artifact.dense_index
        if config.mode in ("dense", "hybrid") and dense is None:
            raise ConfigurationError(
                f"retrieval mode {config.mode!r} needs a compiled dense "
                "index but the artifact has none; re-run `repro compile "
                "--index dense` (or --index both)"
            )
        model = self._model

        def encode_query(tokens: Sequence[str]) -> Optional[np.ndarray]:
            if not tokens:
                return None
            ids = model.words_to_ids(list(tokens))
            return model.encode_concept(ids, keep_caches=False).final_h

        return HybridRetriever(
            sparse,
            dense,
            encode_query,
            nprobe=config.nprobe,
            fusion_weight=config.fusion_weight,
            fusion_method=config.fusion_method,
        )

    # -- introspection ------------------------------------------------------

    @property
    def candidates(self) -> CandidateGenerator:
        """The Phase-I generator over the artifact's frozen documents.

        The linker adopts it as its own ``candidates`` (Ω, indexed
        cids), so the two can never drift from what the engine serves.
        """
        return self._candidates

    @property
    def artifact(self) -> ConceptArtifact:
        """The compiled artifact backing this engine."""
        return self._artifact

    @property
    def fingerprint(self) -> str:
        """The artifact's model-weight SHA-256 (deployment identity).

        The blue/green swapper reports this before/after a flip, and
        ``/v1/metrics`` surfaces it so an operator can always tell
        *which* weights a live instance is serving.
        """
        return str(self._artifact.fingerprint.get("params_sha256", ""))

    def __contains__(self, cid: str) -> bool:
        return cid in self._artifact

    def stats(self) -> Dict[str, Any]:
        """Engine counters for the serving layer's snapshot/metrics."""
        with self._lock:
            return {
                "fingerprint": self.fingerprint,
                "concepts": len(self._artifact),
                "retrievals": self._retrievals,
                "score_batches": self._score_batches,
                "retrieval_mode": self._retrieval.mode,
                "retrievals_by_mode": dict(self._mode_retrievals),
                "mmap": bool(getattr(self._artifact, "mmap", False)),
            }

    # -- precomputed encodings ----------------------------------------------

    def encoding_of(self, cid: str) -> ConceptEncoding:
        """The precompiled encoding for ``cid`` (zero-copy views)."""
        return self._artifact.encoding_of(cid)

    def structure_memory_of(
        self, cid: str
    ) -> Union[np.ndarray, List[ConceptEncoding]]:
        """Precomputed ``(beta, dim)`` structure memory, or ``[]``.

        The empty-list form is what :meth:`ComAid.score_batch` expects
        for models without structure attention, so the return value can
        be passed straight through as a candidate's ``ancestors``.
        """
        memory = self._artifact.structure_memory_of(cid)
        return memory if memory is not None else []

    # -- Phase I ------------------------------------------------------------

    def retrieve(
        self, tokens: Sequence[str], k: int
    ) -> List[Tuple[str, float]]:
        """Top-``k`` ``(cid, score)`` candidates for ``tokens``.

        ``exact`` mode scans the TF-IDF index; ``sparse``/``dense``/
        ``hybrid`` answer from the sublinear retriever.  Either way the
        work runs under an ``engine.retrieve`` span (Fig-11 CR) tagged
        with the mode.
        """
        mode = self._retrieval.mode
        with self._lock:
            self._retrievals += 1
            self._mode_retrievals[mode] += 1
        with trace.span("engine.retrieve", phase="CR", mode=mode, k=k) as span:
            probe("engine.retrieve")
            if self._hybrid is None:
                hits = self._candidates.generate(tokens, k)
            elif mode == "sparse":
                matches = self._hybrid.sparse.search(
                    tokens,
                    k,
                    max_postings_per_term=self._retrieval.max_postings_per_term,
                )
                hits = [(match.key, match.score) for match in matches]
            else:
                matches = self._hybrid.search(tokens, k, mode=mode)
                hits = [(match.key, match.score) for match in matches]
            span.set_tag("candidates", len(hits))
            return hits

    # -- Phase II -----------------------------------------------------------

    def score_batch(
        self,
        query_ids: Sequence[Sequence[int]],
        cids: Sequence[str],
    ) -> np.ndarray:
        """``log p(q_j | c_j)`` for each candidate, in one decode.

        Drop-in for :meth:`ComAid.score_batch` with concept ids instead
        of encoding pairs: each candidate's encoding and structure
        memory come from the precompiled slab.  Any failure propagates
        (a partially scored ranking would be unfairly ordered) and is
        handled by the linker's degraded-mode guard.
        """
        if len(query_ids) != len(cids):
            raise DataError(
                f"got {len(query_ids)} query sequences for "
                f"{len(cids)} candidates"
            )
        with self._lock:
            self._score_batches += 1
        if not cids:
            return np.zeros(0, dtype=np.float64)
        with trace.span("engine.phase2", phase="ED", batch=len(cids)):
            probe("engine.score")
            batch = [
                (self.encoding_of(cid), self.structure_memory_of(cid))
                for cid in cids
            ]
            scores = self._model.score_batch(
                [list(ids) for ids in query_ids], batch
            )
        return np.asarray(scores, dtype=np.float64)
